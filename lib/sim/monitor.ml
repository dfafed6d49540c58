(* Live attack-run monitor: the state behind [ovsdos monitor].

   One [observe] per scenario tick closes the sliding windows; the two
   renderers then describe that last window plus the dataplane's
   current state — a top-like text frame for the terminal, and a
   byte-stable JSON snapshot (sorted keys, %.9g floats) for scripted
   polling. Rendering is pulled apart from the scenario driver so the
   frames can be golden-tested without a terminal. *)

open Pi_ovs

type t = {
  wins : Pi_telemetry.Window.t option array;
      (* per-shard window over the shard registry's [cycles_per_packet]
         histogram; None for shards without metrics *)
  geom : Pi_telemetry.Histogram.t option;
      (* any one of the windowed histograms — they share the default
         geometry, so it prices merged snapshots for every shard *)
  upcall_rate : Pi_telemetry.Window.Ewma.t;
  stage_prev : float array;  (* merged per-stage cycles at the last tick *)
  stage_win : float array;   (* last window's per-stage cycle deltas *)
  has_perf : bool;
  mutable ticks : int;
}

let merged_stage_cycles dp st =
  let tot = ref 0. in
  for s = 0 to Dataplane.n_shards dp - 1 do
    match Dataplane.shard_perf dp s with
    | Some p -> tot := !tot +. Pi_telemetry.Perf.stage_cycles p st
    | None -> ()
  done;
  !tot

let create dp =
  let n = Dataplane.n_shards dp in
  let wins =
    Array.init n (fun s ->
        match Dataplane.shard_metrics dp s with
        | Some m ->
          Some
            (Pi_telemetry.Window.create
               (Pi_telemetry.Metrics.histogram m "cycles_per_packet"))
        | None -> None)
  in
  let geom =
    let g = ref None in
    for s = n - 1 downto 0 do
      match Dataplane.shard_metrics dp s with
      | Some m -> g := Some (Pi_telemetry.Metrics.histogram m "cycles_per_packet")
      | None -> ()
    done;
    !g
  in
  let has_perf =
    let any = ref false in
    for s = 0 to n - 1 do
      if Dataplane.shard_perf dp s <> None then any := true
    done;
    !any
  in
  { wins; geom;
    upcall_rate = Pi_telemetry.Window.Ewma.create ();
    stage_prev = Array.make Pi_telemetry.Perf.n_stages 0.;
    stage_win = Array.make Pi_telemetry.Perf.n_stages 0.;
    has_perf;
    ticks = 0 }

let observe t dp (s : Scenario.sample) =
  Array.iter
    (function Some w -> Pi_telemetry.Window.tick w | None -> ())
    t.wins;
  Pi_telemetry.Window.Ewma.tick t.upcall_rate ~now:s.Scenario.time
    (float_of_int (Dataplane.stats dp).Dataplane.upcalls);
  if t.has_perf then
    for st = 0 to Pi_telemetry.Perf.n_stages - 1 do
      let c = merged_stage_cycles dp st in
      t.stage_win.(st) <- c -. t.stage_prev.(st);
      t.stage_prev.(st) <- c
    done;
  t.ticks <- t.ticks + 1

let ticks t = t.ticks

(* Windowed percentile over all shards: merge the per-shard window
   snapshots (same geometry) and walk the merged buckets. Allocates a
   scratch snapshot — this runs once per displayed frame, not per
   packet. *)
let win_percentile t p =
  match t.geom with
  | None -> nan
  | Some h ->
    let acc = Pi_telemetry.Histogram.snapshot_create h in
    Array.iter
      (function
        | Some w ->
          Pi_telemetry.Histogram.snapshot_merge ~into:acc
            (Pi_telemetry.Window.snapshot w)
        | None -> ())
      t.wins;
    Pi_telemetry.Histogram.snapshot_percentile h acc p

let win_count t =
  let n = ref 0 in
  Array.iter
    (function
      | Some w -> n := !n + Pi_telemetry.Window.count w
      | None -> ())
    t.wins;
  !n

let suspect dp =
  match Dataplane.provenance dp with
  | [] -> None
  | stores -> Provenance.top_suspect (Provenance.report stores)

(* ---------- text frame ---------- *)

let pp_frame ppf (t, dp, (s : Scenario.sample)) =
  let st = Dataplane.stats dp in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "t=%7.1fs  victim %6.4f / %6.4f Gbps  loss %5.3f@,"
    s.Scenario.time s.Scenario.victim_gbps s.Scenario.offered_gbps
    s.Scenario.loss;
  Format.fprintf ppf "masks %d  megaflows %d  emc-hit %4.1f %%@,"
    s.Scenario.n_masks s.Scenario.n_megaflows
    (100. *. s.Scenario.emc_hit_rate);
  Format.fprintf ppf "upcalls %d (%.1f/s)  pending %d  drops %d@,"
    st.Dataplane.upcalls
    (let r = Pi_telemetry.Window.Ewma.rate t.upcall_rate in
     if Float.is_nan r then 0. else r)
    st.Dataplane.pending_upcalls st.Dataplane.upcall_drops;
  Format.fprintf ppf "cycles/pkt  tick-avg %.1f" s.Scenario.victim_cycles_per_pkt;
  (match t.geom with
   | Some _ ->
     let pr name p =
       let v = win_percentile t p in
       if Float.is_nan v then Format.fprintf ppf "  %s -" name
       else Format.fprintf ppf "  %s %.0f" name v
     in
     pr "win-p50" 50.;
     pr "win-p99" 99.
   | None -> ());
  Format.fprintf ppf "@,";
  if t.has_perf then begin
    let total = Array.fold_left ( +. ) 0. t.stage_win in
    Format.fprintf ppf "stage-share ";
    for st = 0 to Pi_telemetry.Perf.n_stages - 1 do
      Format.fprintf ppf " %s %4.1f%%"
        (Pi_telemetry.Perf.stage_name st)
        (if total <= 0. then 0. else 100. *. t.stage_win.(st) /. total)
    done;
    Format.fprintf ppf "@,"
  end;
  Format.fprintf ppf "shard  masks    Gbps@,";
  Array.iteri
    (fun i m ->
      Format.fprintf ppf "%5d %6d  %6.4f@," i m s.Scenario.shard_gbps.(i))
    s.Scenario.shard_masks;
  (match suspect dp with
   | Some r ->
     Format.fprintf ppf "suspect  tenant %d  masks %d  upcalls %d  ports %a@,"
       r.Provenance.t_tenant r.Provenance.t_masks r.Provenance.t_upcalls
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
          Format.pp_print_int)
       r.Provenance.t_ports
   | None -> ());
  Format.fprintf ppf "@]"

let frame t dp s = Format.asprintf "%a" pp_frame (t, dp, s)

(* ---------- byte-stable JSON snapshot ---------- *)

(* Same conventions as Pi_telemetry.Export: sorted keys, shared scalar
   writers. *)
module Json = Pi_telemetry.Json

let add_int b v = Buffer.add_string b (string_of_int v)

let json t dp (s : Scenario.sample) =
  let b = Buffer.create 1024 in
  let st = Dataplane.stats dp in
  let field last name f =
    Buffer.add_char b '"';
    Buffer.add_string b name;
    Buffer.add_string b "\":";
    f ();
    if not last then Buffer.add_char b ','
  in
  Buffer.add_char b '{';
  field false "cycles" (fun () ->
      Buffer.add_char b '{';
      field false "tick_avg" (fun () ->
          Json.add_float b s.Scenario.victim_cycles_per_pkt);
      field false "win_count" (fun () -> add_int b (win_count t));
      field false "win_p50" (fun () -> Json.add_float b (win_percentile t 50.));
      field true "win_p99" (fun () -> Json.add_float b (win_percentile t 99.));
      Buffer.add_char b '}');
  field false "emc_hit_rate" (fun () -> Json.add_float b s.Scenario.emc_hit_rate);
  field false "loss" (fun () -> Json.add_float b s.Scenario.loss);
  field false "masks" (fun () -> add_int b s.Scenario.n_masks);
  field false "megaflows" (fun () -> add_int b s.Scenario.n_megaflows);
  field false "offered_gbps" (fun () -> Json.add_float b s.Scenario.offered_gbps);
  field false "shards" (fun () ->
      Buffer.add_char b '[';
      Array.iteri
        (fun i m ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '{';
          field false "gbps" (fun () -> Json.add_float b s.Scenario.shard_gbps.(i));
          field true "masks" (fun () -> add_int b m);
          Buffer.add_char b '}')
        s.Scenario.shard_masks;
      Buffer.add_char b ']');
  field false "stages" (fun () ->
      if not t.has_perf then Buffer.add_string b "null"
      else begin
        (* stage names in sorted order, with their window cycle deltas *)
        let names =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (List.init Pi_telemetry.Perf.n_stages (fun i ->
                 (Pi_telemetry.Perf.stage_name i, t.stage_win.(i))))
        in
        Buffer.add_char b '{';
        List.iteri
          (fun i (name, c) ->
            field
              (i = List.length names - 1)
              name
              (fun () -> Json.add_float b c))
          names;
        Buffer.add_char b '}'
      end);
  field false "suspect" (fun () ->
      match suspect dp with
      | None -> Buffer.add_string b "null"
      | Some r ->
        Buffer.add_char b '{';
        field false "masks" (fun () -> add_int b r.Provenance.t_masks);
        field false "ports" (fun () ->
            Buffer.add_char b '[';
            List.iteri
              (fun i p ->
                if i > 0 then Buffer.add_char b ',';
                add_int b p)
              r.Provenance.t_ports;
            Buffer.add_char b ']');
        field false "tenant" (fun () -> add_int b r.Provenance.t_tenant);
        field true "upcalls" (fun () -> add_int b r.Provenance.t_upcalls);
        Buffer.add_char b '}');
  field false "time" (fun () -> Json.add_float b s.Scenario.time);
  field false "upcalls" (fun () ->
      Buffer.add_char b '{';
      field false "drops" (fun () -> add_int b st.Dataplane.upcall_drops);
      field false "pending" (fun () -> add_int b st.Dataplane.pending_upcalls);
      field false "rate" (fun () ->
          Json.add_float b (Pi_telemetry.Window.Ewma.rate t.upcall_rate));
      field true "total" (fun () -> add_int b st.Dataplane.upcalls);
      Buffer.add_char b '}');
  field true "victim_gbps" (fun () -> Json.add_float b s.Scenario.victim_gbps);
  Buffer.add_char b '}';
  Buffer.add_char b '\n';
  Buffer.contents b
