(* ovs-appctl-style introspection rendered from any live dataplane.

   Each renderer mirrors one of the tools an operator would point at a
   real OVS under attack: [dpctl/dump-flows] (the megaflow cache),
   [dpctl/dump-flows -m]-ish per-mask stats, per-port stats and
   [dpif-netdev/pmd-perf-show]. Everything reads through the
   {!Dataplane.S} introspection hooks, so every backend — pmd with one
   shard or several, cache-less baseline — renders with the same code. *)

let shard_header ppf dp s =
  if Dataplane.n_shards dp > 1 then
    Format.fprintf ppf "pmd thread numa_id 0 core_id %d:@," s

let dump_flows ?max ~now ppf dp =
  let limit = match max with Some m -> m | None -> max_int in
  Format.fprintf ppf "@[<v>";
  for s = 0 to Dataplane.n_shards dp - 1 do
    shard_header ppf dp s;
    let flows = Dataplane.shard_flows dp s in
    let printed = ref 0 in
    List.iter
      (fun e ->
        if !printed < limit then begin
          Format.fprintf ppf "%a@," (Megaflow.pp_entry ~now) e;
          incr printed
        end)
      flows;
    let n = List.length flows in
    if n > limit then Format.fprintf ppf "... (%d more)@," (n - limit)
  done;
  let st = Dataplane.stats dp in
  Format.fprintf ppf "flows: %d (masks: %d)@,@]" st.Dataplane.megaflows
    st.Dataplane.masks

let dump_masks ppf dp =
  let stores = Dataplane.provenance dp in
  Format.fprintf ppf "@[<v>";
  for s = 0 to Dataplane.n_shards dp - 1 do
    shard_header ppf dp s;
    let store = List.nth_opt stores s in
    List.iter
      (fun (m : Megaflow.mask_stat) ->
        (* Flat-table health per subtable: live/capacity occupancy and
           the mean/worst open-addressing probe run. *)
        Format.fprintf ppf
          "mask: %a entries:%d hits:%d occupancy:%d/%d probe-len:%.2f/%d"
          Pi_classifier.Mask.pp m.Megaflow.ms_mask m.Megaflow.ms_entries
          m.Megaflow.ms_hits m.Megaflow.ms_entries m.Megaflow.ms_capacity
          m.Megaflow.ms_mean_probe m.Megaflow.ms_max_probe;
        (match store with
         | Some store -> begin
           match Provenance.mask_origin store m.Megaflow.ms_mask with
           | Some o -> Format.fprintf ppf " origin(%a)" Provenance.pp_origin o
           | None -> ()
         end
         | None -> ());
        Format.fprintf ppf "@,")
      (Dataplane.shard_mask_stats dp s)
  done;
  Format.fprintf ppf "masks: %d@,@]" (Dataplane.stats dp).Dataplane.masks

let port_stats ppf dp =
  match Dataplane.provenance dp with
  | [] ->
    Format.fprintf ppf
      "@[<v>per-port accounting needs provenance (create the dataplane \
       with a Provenance registry)@,@]"
  | stores -> Provenance.pp_ports ppf (Provenance.report stores)

(* The per-stage block of [pmd-perf-show], from a shard's {!Perf.t}: one
   line per pipeline stage with its share of the charged cycles —
   mirroring real OVS's "Cycles breakdown" — then the derived rates. *)
let pp_perf ppf p =
  let module P = Pi_telemetry.Perf in
  let total = P.total_cycles p in
  let c = P.counts p in
  let pkts = c.P.packets in
  Format.fprintf ppf "  per-stage cycles:@,";
  for st = 0 to P.n_stages - 1 do
    let c = P.stage_cycles p st in
    Format.fprintf ppf "  - %-12s %14.0f (%5.1f %%)@,"
      (P.stage_name st ^ ":") c
      (if total = 0. then 0. else 100. *. c /. total)
  done;
  Format.fprintf ppf "  avg cycles/pkt: %.1f@,"
    (if pkts = 0 then 0. else total /. float_of_int pkts);
  Format.fprintf ppf "  avg subtables/walk: %.2f@,"
    (let walks = pkts - c.P.emc_hits in
     if walks <= 0 then 0.
     else float_of_int c.P.mf_probes /. float_of_int walks);
  Format.fprintf ppf "  rx batches:     %d (avg %.1f pkts/batch)@," c.P.batches
    (if c.P.batches = 0 then 0.
     else float_of_int pkts /. float_of_int c.P.batches);
  Format.fprintf ppf "  reval sweeps:   %d (evicted %d)@," c.P.reval_sweeps
    c.P.reval_evicted

let pmd_perf ppf dp =
  let masks = Dataplane.shard_masks dp in
  let cycles = Dataplane.shard_cycles dp in
  Format.fprintf ppf "@[<v>";
  for s = 0 to Dataplane.n_shards dp - 1 do
    Format.fprintf ppf "pmd thread %d (%s):@," s (Dataplane.name dp);
    Format.fprintf ppf "  masks:          %d@," masks.(s);
    Format.fprintf ppf "  cycles:         %.0f@," cycles.(s);
    (match Dataplane.shard_metrics dp s with
     | None -> ()
     | Some m ->
       let c name =
         Option.value ~default:0 (Pi_telemetry.Metrics.find_counter m name)
       in
       let packets = c "packets" in
       let pct v =
         if packets = 0 then 0.
         else 100. *. float_of_int v /. float_of_int packets
       in
       Format.fprintf ppf "  packets:        %d@," packets;
       Format.fprintf ppf "  emc hits:       %d (%.1f %%)@," (c "emc_hit")
         (pct (c "emc_hit"));
       Format.fprintf ppf "  megaflow hits:  %d (%.1f %%)@," (c "mf_hit")
         (pct (c "mf_hit"));
       Format.fprintf ppf "  upcalls:        %d (%.1f %%)@," (c "upcall")
         (pct (c "upcall"));
       Format.fprintf ppf "  avg subtable lookups/hit: %.2f@,"
         (let hits = c "mf_hit" in
          if hits = 0 then 0.
          else float_of_int (c "mf_probes") /. float_of_int hits));
    match Dataplane.shard_perf dp s with
    | None -> ()
    | Some p -> pp_perf ppf p
  done;
  let st = Dataplane.stats dp in
  Format.fprintf ppf
    "total: packets:%d upcalls:%d drops:%d masks:%d megaflows:%d \
     cycles:%.0f handler-cycles:%.0f@,@]"
    st.Dataplane.packets st.Dataplane.upcalls st.Dataplane.upcall_drops
    st.Dataplane.masks st.Dataplane.megaflows st.Dataplane.cycles
    st.Dataplane.handler_cycles

let attribution ppf dp =
  match Dataplane.provenance dp with
  | [] ->
    Format.fprintf ppf
      "@[<v>attribution needs provenance (create the dataplane with a \
       Provenance registry)@,@]"
  | stores -> Provenance.pp_summary ppf (Provenance.report stores)
