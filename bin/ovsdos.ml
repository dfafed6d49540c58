(* ovsdos — command-line front end to the policy-injection toolkit.

   Subcommands:
     expand   print the Fig. 2-style megaflow table for a whitelist ACL
     predict  closed-form mask counts and covert-stream budget
     masks    drive the covert sequence through a real datapath
     pcap     export one covert round as a .pcap file
     detect   run the attack under the provider-side detector
     dpctl    ovs-appctl-style introspection of a live dataplane
     attack   run the Fig. 3 end-to-end scenario
     run      interpret a .pis scenario file *)

open Cmdliner
open Policy_injection

let ip = Pi_pkt.Ipv4_addr.of_string

(* --- shared arguments --- *)

let variant_conv =
  let parse s =
    match Variant.of_name s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown variant %S (expected %s)" s
                     (String.concat ", " (List.map Variant.name Variant.all))))
  in
  Arg.conv (parse, Variant.pp)

let variant_arg =
  Arg.(value & opt variant_conv Variant.Src_dport
       & info [ "v"; "variant" ] ~docv:"VARIANT"
           ~doc:"Attack variant: src-only (32 masks), src-dport (512), \
                 src-sport-dport (8192, needs Calico).")

(* A malformed --allow-src is a usage error, not a raised exception. *)
let ipv4_conv =
  let parse s =
    match Pi_pkt.Ipv4_addr.of_string_opt s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf
                     "invalid IPv4 address %S (expected dotted quad, e.g. \
                      10.0.0.10)" s))
  in
  Arg.conv
    (parse, fun ppf a -> Format.pp_print_string ppf (Pi_pkt.Ipv4_addr.to_string a))

let allow_src_arg =
  Arg.(value & opt ipv4_conv (ip "10.0.0.10")
       & info [ "allow-src" ] ~docv:"IP" ~doc:"Whitelisted source address.")

(* Shard counts, burst sizes, queue depths and sample periods must be at
   least 1, and at most [hi] where one is given: a value out of range is
   a usage error, not a raised exception. *)
let pos_int_conv ?(hi = max_int) () =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= hi -> Ok n
    | Some _ | None ->
      Error
        (`Msg
           (if hi = max_int then
              Printf.sprintf "invalid value %S (expected an integer >= 1)" s
            else
              Printf.sprintf
                "invalid value %S (expected an integer from 1 to %d)" s hi))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Run lengths, times and loads: a finite number in range, else a usage
   error worded as the .pis validator words it. *)
let float_conv ~what ~bound ok =
  let parse s =
    let err fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
    match float_of_string_opt s with
    | None -> err "invalid value %S (expected a number)" s
    | Some x when not (Float.is_finite x) ->
      err "%s must be finite (got %s)" what (Pi_dsl.Pretty.float_str x)
    | Some x when not (ok x) ->
      err "%s must be %s (got %s)" what bound (Pi_dsl.Pretty.float_str x)
    | Some x -> Ok x
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let pos_float_conv what = float_conv ~what ~bound:"> 0" (fun x -> x > 0.)
let nonneg_float_conv what = float_conv ~what ~bound:">= 0" (fun x -> x >= 0.)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let spec_of variant allow_src =
  Policy_gen.default_spec ~variant ~allow_src ()

let backend_arg =
  Arg.(value & opt (enum [ ("pmd", `Pmd); ("cacheless", `Cacheless) ]) `Pmd
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Dataplane backend: $(b,pmd) (default; the cached OVS fast \
                 path, one PMD thread per --shards) or $(b,cacheless) (no \
                 flow cache — the attack-immune baseline).")

(* OCaml 5.1's runtime runs at most 128 domains at once: a pipeline
   spawns one worker domain per shard beside the main and handler
   domains, so 126 shards is the most any run can start. *)
let max_shards = 126

let shards_arg =
  Arg.(value & opt (pos_int_conv ~hi:max_shards ())
         Pi_sim.Scenario.(default_params.n_shards)
       & info [ "shards" ] ~docv:"N"
           ~doc:(Printf.sprintf
                   "PMD threads (one core each) of the pmd backend; flows are \
                    RSS-steered across them. 1 (the default) is the \
                    single-datapath model, and the only value the cacheless \
                    backend accepts. At most %d: a shard may run on its own \
                    domain, and OCaml allows 128 domains, two of which are \
                    the main and upcall-handler domains."
                   max_shards))

(* The cache-less backend is one shard, so more is a usage error,
   worded as [Validate] words it in a .pis file. *)
let backend_shards_arg =
  let check backend shards =
    match backend with
    | `Cacheless when shards > 1 ->
      `Error (true, "backend cacheless is single-threaded; shards must be 1")
    | `Pmd | `Cacheless -> `Ok (backend, shards)
  in
  Term.(ret (const check $ backend_arg $ shards_arg))

(* Output files are opened before any work, so an unwritable path is a
   diagnostic (exit 123) up front, not an exception after the run. *)
let open_out_or_exit ?(binary = false) path =
  try (if binary then open_out_bin else open_out) path
  with Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "ovsdos: cannot write %S: %s\n" path reason;
    exit Cmd.Exit.some_error

(* --- expand --- *)

let expand variant allow_src toy =
  if toy then begin
    (* The paper's 8-bit illustration (Fig. 2a/2b). *)
    let trie = Pi_classifier.Trie.create ~width:8 in
    Pi_classifier.Trie.insert trie ~value:0b00001010 ~len:8;
    Printf.printf "ACL (Fig. 2a):\n  ip_src    action\n  00001010  allow\n  ********  deny\n\n";
    Printf.printf "Non-overlapping megaflow entries (Fig. 2b):\n";
    Printf.printf "  %-10s %-10s %s\n" "Key" "Mask" "Action";
    Printf.printf "  %-10s %-10s %s\n" "00001010" "11111111" "allow";
    List.iter
      (fun (v, len) ->
        let bits x = String.init 8 (fun i ->
            if (x lsr (7 - i)) land 1 = 1 then '1' else '0')
        in
        let mask = if len = 0 then 0 else ((-1) lsl (8 - len)) land 0xFF in
        Printf.printf "  %-10s %-10s %s\n" (bits v) (bits mask) "deny")
      (Pi_classifier.Trie.complement trie)
  end
  else begin
    let spec = spec_of variant allow_src in
    let acl = Policy_gen.acl spec in
    Format.printf "ACL:@.%a@.@." Pi_cms.Acl.pp acl;
    Format.printf "Compiled flow rules:@.";
    List.iter
      (fun (r : Pi_ovs.Action.t Pi_classifier.Rule.t) ->
        Format.printf "  %a@." (Pi_classifier.Rule.pp Pi_ovs.Action.pp) r)
      (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) acl);
    Format.printf "@.Deny-side megaflow masks an adversary can mint: %d@."
      (Predict.variant_masks variant)
  end

let expand_cmd =
  let toy =
    Arg.(value & flag
         & info [ "fig2" ] ~doc:"Print the paper's 8-bit toy table (Fig. 2) verbatim.")
  in
  Cmd.v (Cmd.info "expand" ~doc:"Show the megaflow expansion of a whitelist ACL")
    Term.(const expand $ variant_arg $ allow_src_arg $ toy)

(* --- predict --- *)

let predict pkt_len refresh =
  Printf.printf "%-18s %8s %10s %12s %14s\n" "variant" "masks" "entries"
    "packets/rnd" "covert Mb/s";
  List.iter
    (fun v ->
      Printf.printf "%-18s %8d %10d %12d %14.2f\n" (Variant.name v)
        (Predict.variant_masks v) (Predict.total_entries v)
        (Predict.covert_packets v)
        (Predict.covert_bandwidth_bps ~pkt_len ~refresh_period:refresh v /. 1e6))
    Variant.all;
  Printf.printf
    "\n(stock-OVS short-circuit classifier would cap src-dport at %d masks)\n"
    (Predict.variant_masks ~config:Pi_classifier.Tss.ovs_default_config
       Variant.Src_dport)

let predict_cmd =
  let pkt_len =
    Arg.(value & opt int 100
         & info [ "pkt-len" ] ~docv:"BYTES" ~doc:"Covert frame size.")
  in
  let refresh =
    Arg.(value & opt float 5.
         & info [ "refresh" ] ~docv:"SECONDS" ~doc:"Megaflow refresh period.")
  in
  Cmd.v (Cmd.info "predict" ~doc:"Closed-form mask counts and covert budget")
    Term.(const predict $ pkt_len $ refresh)

(* --- masks --- *)

let masks variant allow_src seed telemetry =
  let spec = spec_of variant allow_src in
  let ctx =
    if telemetry then Pi_telemetry.Ctx.full () else Pi_telemetry.Ctx.empty
  in
  let dp =
    Pi_ovs.Dataplane.create ~telemetry:ctx
      (Pi_ovs.Dataplane.pmd ())
      (Pi_pkt.Prng.create (Int64.of_int seed))
  in
  Pi_ovs.Dataplane.install_rules dp
    (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) (Policy_gen.acl spec));
  let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
  let flows = Packet_gen.flows ~seed:(Int64.of_int seed) gen in
  let b = Pi_ovs.Batch.create ~capacity:(max 1 (List.length flows)) in
  List.iter (fun f -> Pi_ovs.Batch.push b f ~pkt_len:100) flows;
  Pi_ovs.Dataplane.process_batch dp b ~now:0.;
  let st = Pi_ovs.Dataplane.stats dp in
  Printf.printf "covert packets sent: %d\n" (List.length flows);
  Printf.printf "megaflow masks:      %d (predicted %d)\n"
    st.Pi_ovs.Dataplane.masks (Predict.variant_masks variant);
  Printf.printf "megaflow entries:    %d\n" st.Pi_ovs.Dataplane.megaflows;
  Printf.printf "upcalls:             %d\n" st.Pi_ovs.Dataplane.upcalls;
  match Pi_telemetry.Ctx.metrics ctx with
  | Some m ->
    print_newline ();
    print_endline
      (Pi_telemetry.Export.text_report ?tracer:(Pi_telemetry.Ctx.tracer ctx) m)
  | None -> ()

let masks_cmd =
  let telemetry =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Attach a metrics registry and event tracer; print the \
                   dpctl-style telemetry report after the run.")
  in
  Cmd.v (Cmd.info "masks" ~doc:"Drive the covert sequence through a datapath")
    Term.(const masks $ variant_arg $ allow_src_arg $ seed_arg $ telemetry)

(* --- dump --- *)

let dump variant allow_src seed max =
  let spec = spec_of variant allow_src in
  let dp = Pi_ovs.Datapath.create (Pi_pkt.Prng.create (Int64.of_int seed)) () in
  Pi_ovs.Datapath.install_rules dp
    (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) (Policy_gen.acl spec));
  let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
  List.iter
    (fun f -> ignore (Pi_ovs.Datapath.process dp ~now:0. f ~pkt_len:100))
    (Packet_gen.flows ~seed:(Int64.of_int seed) gen);
  Printf.printf "# %d megaflows across %d masks after one covert round\n"
    (Pi_ovs.Datapath.n_megaflows dp) (Pi_ovs.Datapath.n_masks dp);
  Pi_ovs.Megaflow.dump ~max ~now:0. Format.std_formatter
    (Pi_ovs.Datapath.megaflow dp)

let dump_cmd =
  let max =
    Arg.(value & opt int 40
         & info [ "max" ] ~docv:"N" ~doc:"Maximum entries to print.")
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"ovs-dpctl-style dump of the megaflow cache after an attack round")
    Term.(const dump $ variant_arg $ allow_src_arg $ seed_arg $ max)

(* --- pcap --- *)

let pcap variant allow_src seed rate out =
  let oc = open_out_or_exit ~binary:true out in
  let spec = spec_of variant allow_src in
  let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
  let records = Packet_gen.to_pcap ~seed:(Int64.of_int seed) ~rate_pps:rate gen in
  output_bytes oc (Pi_pkt.Pcap.to_bytes records);
  close_out oc;
  Printf.printf "wrote %d covert packets to %s (%.2f Mb/s at %g pps)\n"
    (List.length records) out
    (rate *. 100. *. 8. /. 1e6) rate

let pcap_cmd =
  let rate =
    Arg.(value & opt float 2000.
         & info [ "rate" ] ~docv:"PPS" ~doc:"Pacing of the exported stream.")
  in
  let out =
    Arg.(value & opt string "covert.pcap"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "pcap" ~doc:"Export one covert round as a pcap capture")
    Term.(const pcap $ variant_arg $ allow_src_arg $ seed_arg $ rate $ out)

(* --- dpctl --- *)

(* A small live dataplane for the introspection views: the attacked
   pod's policy bound to tenant 3, one covert round plus a trickle of
   trusted traffic, everything entering on uplink port 1. *)
let dpctl_dataplane variant allow_src seed backend shards =
  let spec = spec_of variant allow_src in
  let backend =
    match backend with
    | `Pmd ->
      Pi_ovs.Dataplane.pmd
        ~config:{ Pi_ovs.Pmd.default_config with Pi_ovs.Pmd.n_shards = shards }
        ()
    | `Cacheless -> Pi_mitigation.Cacheless.dataplane ()
  in
  let reg = Pi_ovs.Provenance.registry () in
  let metrics = Pi_telemetry.Metrics.create () in
  let dp =
    Pi_ovs.Dataplane.create ~telemetry:(Pi_telemetry.Ctx.v ~metrics ())
      ~provenance:reg backend
      (Pi_pkt.Prng.create (Int64.of_int seed))
  in
  let rules =
    Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 3) (Policy_gen.acl spec)
  in
  Pi_ovs.Provenance.bind reg ~tenant:3
    ~acl_rule:Pi_cms.Compile.acl_rule_index rules;
  Pi_ovs.Dataplane.install_rules dp rules;
  let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
  let covert = Packet_gen.flows ~seed:(Int64.of_int seed) gen in
  let b = Pi_ovs.Batch.create ~capacity:(max 16 (List.length covert)) in
  List.iter
    (fun f ->
      let f = Pi_classifier.Flow.with_field f Pi_classifier.Field.In_port 1 in
      Pi_ovs.Batch.push b f ~pkt_len:100)
    covert;
  Pi_ovs.Dataplane.process_batch dp b ~now:0.;
  let trusted =
    Pi_classifier.Flow.make ~in_port:1 ~ip_src:allow_src
      ~ip_dst:(ip "10.1.0.3") ~ip_proto:Pi_pkt.Ipv4.proto_tcp ~tp_src:40000
      ~tp_dst:443 ()
  in
  Pi_ovs.Batch.clear b;
  for _ = 1 to 16 do
    Pi_ovs.Batch.push b trusted ~pkt_len:1500
  done;
  Pi_ovs.Dataplane.process_batch dp b ~now:0.;
  ignore (Pi_ovs.Dataplane.service_upcalls dp ~now:0.);
  dp

let dpctl_view view variant allow_src seed (backend, shards) max =
  let dp = dpctl_dataplane variant allow_src seed backend shards in
  let ppf = Format.std_formatter in
  (match view with
   | `Flows -> Pi_ovs.Dpctl.dump_flows ~max ~now:0. ppf dp
   | `Masks -> Pi_ovs.Dpctl.dump_masks ppf dp
   | `Ports -> Pi_ovs.Dpctl.port_stats ppf dp
   | `Perf -> Pi_ovs.Dpctl.pmd_perf ppf dp
   | `Attribution -> Pi_ovs.Dpctl.attribution ppf dp);
  Format.pp_print_flush ppf ()

let dpctl_sub name doc view =
  let max =
    Arg.(value & opt int 40
         & info [ "max" ] ~docv:"N"
             ~doc:"Maximum flows to print per shard (dump-flows only).")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const (dpctl_view view) $ variant_arg $ allow_src_arg $ seed_arg
          $ backend_shards_arg $ max)

let dpctl_cmd =
  Cmd.group
    (Cmd.info "dpctl"
       ~doc:"ovs-appctl-style introspection of a live dataplane after one \
             covert round")
    [ dpctl_sub "dump-flows"
        "Dump every megaflow entry, with provenance stamps" `Flows;
      dpctl_sub "dump-masks"
        "One line per subtable: entries, hits and first minter" `Masks;
      dpctl_sub "port-stats"
        "Per-ingress-port packet/cycle accounting" `Ports;
      dpctl_sub "pmd-perf-show"
        "Per-shard hit rates, lookup cost and cycle totals" `Perf;
      dpctl_sub "attribution"
        "Ranked per-tenant mask/cycle attribution report" `Attribution ]

(* --- detect --- *)

let detect variant duration start =
  let open Pi_sim in
  let a =
    { Scenario.default_attack with Scenario.variant; start }
  in
  let p =
    { Scenario.default_params with
      Scenario.duration;
      victim_flows = 3000;
      victim_samples_per_tick = 300;
      attack = Some a;
      provenance = true }
  in
  let r = Scenario.run p in
  (* The attribution report names the tenant behind the masks; attach
     its top row to every alarm the detector raises. *)
  let suspect =
    Option.bind r.Scenario.attribution Pi_ovs.Provenance.top_suspect
  in
  let det = Pi_mitigation.Detector.create () in
  let first_alarm = ref None in
  List.iter
    (fun s ->
      match
        Pi_mitigation.Detector.observe det ~now:s.Scenario.time ?suspect
          ~n_masks:s.Scenario.n_masks
          ~avg_probes:(s.Scenario.victim_cycles_per_pkt /. 100.) ()
      with
      | Some alarm when !first_alarm = None -> first_alarm := Some alarm
      | Some _ | None -> ())
    r.Scenario.samples;
  (match !first_alarm with
   | Some alarm ->
     Format.printf "first alarm: %a@." Pi_mitigation.Detector.pp_alarm alarm;
     Format.printf "detection delay: %.1f s after attack start@."
       (alarm.Pi_mitigation.Detector.at -. start)
   | None -> print_endline "no alarm raised");
  Printf.printf "total alarms over the run: %d\n"
    (List.length (Pi_mitigation.Detector.alarms det))

let detect_cmd =
  let duration =
    Arg.(value & opt (pos_float_conv "duration") 60.
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let start =
    Arg.(value & opt (nonneg_float_conv "start") 20.
         & info [ "start" ] ~docv:"SECONDS" ~doc:"Attack start time.")
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Run the attack under the provider-side detector and report alarms")
    Term.(const detect $ variant_arg $ duration $ start)

(* --- attack --- *)

let write_csv oc samples =
  output_string oc
    "time,victim_gbps,offered_gbps,n_masks,n_megaflows,emc_hit_rate,loss\n";
  List.iter
    (fun (s : Pi_sim.Scenario.sample) ->
      Printf.fprintf oc "%.1f,%.6f,%.3f,%d,%d,%.4f,%.4f\n"
        s.Pi_sim.Scenario.time s.Pi_sim.Scenario.victim_gbps
        s.Pi_sim.Scenario.offered_gbps s.Pi_sim.Scenario.n_masks
        s.Pi_sim.Scenario.n_megaflows s.Pi_sim.Scenario.emc_hit_rate
        s.Pi_sim.Scenario.loss)
    samples;
  close_out oc

(* The run's mean victim throughput line. A mean over a window without
   samples (the attack starts at 0 s, or the run ends before
   [start + 10] s) is nan: print it as n/a. *)
let print_means (r : Pi_sim.Scenario.report) =
  let gbps ppf v =
    if Float.is_nan v then Format.pp_print_string ppf "n/a"
    else Format.fprintf ppf "%.3f Gbps" v
  in
  Format.printf "@.pre-attack mean: %a, post-attack mean: %a, peak masks: %d@."
    gbps r.Pi_sim.Scenario.pre_attack_mean_gbps gbps
    r.Pi_sim.Scenario.post_attack_mean_gbps r.Pi_sim.Scenario.peak_masks

let attack variant duration start offered every coarse (backend, shards) batch
    pipeline upcall_queue attribution csv json =
  let open Pi_sim in
  let csv = Option.map (fun path -> (path, open_out_or_exit path)) csv in
  let json = Option.map (fun path -> (path, open_out_or_exit path)) json in
  let a = { Scenario.default_attack with Scenario.variant; start } in
  let dc =
    if coarse then
      { Scenario.default_params.Scenario.datapath_config with
        Pi_ovs.Datapath.megaflow_transform =
          Some (Pi_mitigation.Heuristics.round_up_prefix ~granularity:8) }
    else Scenario.default_params.Scenario.datapath_config
  in
  let dc =
    match upcall_queue with
    | None -> dc
    | Some depth ->
      { dc with Pi_ovs.Datapath.upcall_queue = Pi_ovs.Upcall_queue.bounded depth }
  in
  let backend =
    (* [`Pmd] is Scenario's own default construction (from
       shards/batch/datapath_config) — leave it None so the default run
       stays bit-for-bit the historical one. *)
    match backend with
    | `Pmd -> None
    | `Cacheless -> Some (Pi_mitigation.Cacheless.dataplane ())
  in
  let metrics =
    match json with Some _ -> Some (Pi_telemetry.Metrics.create ()) | None -> None
  in
  let p =
    { Scenario.default_params with
      Scenario.duration;
      victim_offered_gbps = offered;
      attack = Some a;
      n_shards = shards;
      batch_size = batch;
      pipeline;
      backend;
      datapath_config = dc;
      metrics;
      provenance = attribution }
  in
  let r = Scenario.run p in
  Format.printf "%a@." Scenario.pp_sample_header ();
  List.iter
    (fun s ->
      if int_of_float s.Scenario.time mod every = 0 then
        Format.printf "%a@." Scenario.pp_sample s)
    r.Scenario.samples;
  print_means r;
  let fs = r.Scenario.final_stats in
  Format.printf
    "upcalls: %d, upcall drops: %d (pending %d), handler cycles: %.0f@."
    fs.Pi_ovs.Dataplane.upcalls fs.Pi_ovs.Dataplane.upcall_drops
    fs.Pi_ovs.Dataplane.pending_upcalls fs.Pi_ovs.Dataplane.handler_cycles;
  if shards > 1 then begin
    (* Per-PMD blast radius: every shard the covert flows hash onto
       grows its own mask set and loses its own core. *)
    let final_masks i =
      match List.rev r.Scenario.samples with
      | s :: _ -> s.Scenario.shard_masks.(i)
      | [] -> 0
    in
    let post_start = start +. 10. in
    let mean_gbps i =
      let vs =
        List.filter_map
          (fun (s : Scenario.sample) ->
            if s.Scenario.time >= post_start then Some s.Scenario.shard_gbps.(i)
            else None)
          r.Scenario.samples
      in
      List.fold_left ( +. ) 0. vs /. float_of_int (max 1 (List.length vs))
    in
    Format.printf "@.%-8s %12s %12s %16s@." "shard" "peak masks" "final masks"
      "post[Gbps]";
    Array.iteri
      (fun i peak ->
        Format.printf "%-8d %12d %12d %16.4f@." i peak (final_masks i)
          (mean_gbps i))
      r.Scenario.peak_shard_masks
  end;
  (match r.Scenario.attribution with
   | Some s ->
     Format.printf "@.attribution (tenants ranked by induced masks):@.%a@."
       Pi_ovs.Provenance.pp_summary s;
     Format.printf "@.%a@." Pi_ovs.Provenance.pp_ports s
   | None -> ());
  (match csv with
   | Some (path, oc) ->
     write_csv oc r.Scenario.samples;
     Format.printf "samples written to %s (plot with bench/fig3.gp)@." path
   | None -> ());
  match json, metrics with
  | Some (path, oc), Some m ->
    let extra =
      match r.Scenario.attribution with
      | Some s -> [ ("attribution", Pi_ovs.Provenance.summary_json s) ]
      | None -> []
    in
    output_string oc
      (Pi_telemetry.Export.json_snapshot ~timeseries:(Scenario.timeseries r)
         ~extra m);
    close_out oc;
    Format.printf "telemetry snapshot written to %s@." path
  | _ -> ()

let attack_cmd =
  (* Flag defaults come from the scenario's own defaults, so the CLI and
     the library cannot drift apart. *)
  let dp = Pi_sim.Scenario.default_params in
  let da = Pi_sim.Scenario.default_attack in
  let duration =
    Arg.(value & opt (pos_float_conv "duration") dp.Pi_sim.Scenario.duration
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let start =
    Arg.(value & opt (nonneg_float_conv "start") da.Pi_sim.Scenario.start
         & info [ "start" ] ~docv:"SECONDS" ~doc:"Attack start time.")
  in
  let offered =
    Arg.(value
         & opt (pos_float_conv "offered") dp.Pi_sim.Scenario.victim_offered_gbps
         & info [ "offered" ] ~docv:"GBPS" ~doc:"Victim offered load.")
  in
  let every =
    Arg.(value & opt (pos_int_conv ()) 5
         & info [ "every" ] ~docv:"SECONDS" ~doc:"Print one sample per N seconds.")
  in
  let coarse =
    Arg.(value & flag & info [ "mitigate" ] ~doc:"Enable the coarsened un-wildcarding mitigation.")
  in
  let batch =
    Arg.(value & opt (pos_int_conv ()) dp.Pi_sim.Scenario.batch_size
         & info [ "batch" ] ~docv:"B" ~doc:"Rx burst size per PMD (OVS: 32).")
  in
  let pipeline =
    Arg.(value & flag
         & info [ "pipeline" ]
             ~doc:"Run the pmd backend in run-to-completion pipeline mode: \
                   persistent worker domains (one per shard, plus a handler \
                   thread under --upcall-queue) fed through SPSC rings, \
                   instead of the deterministic spawn-per-batch engine. \
                   Results are unchanged — only wall-clock execution \
                   differs.")
  in
  let upcall_queue =
    Arg.(value & opt (some (pos_int_conv ())) None
         & info [ "upcall-queue" ] ~docv:"N"
             ~doc:"Bound the fast-path-to-slow-path upcall queue at $(docv) \
                   entries (per shard): cache misses defer to handler \
                   threads and overflow is dropped and counted. Default: \
                   unbounded synchronous upcalls, the historical model.")
  in
  let attribution =
    Arg.(value & flag
         & info [ "attribution" ]
             ~doc:"Enable mask provenance: bind every installed policy to \
                   its tenant, stamp minted masks with their origin, and \
                   print the ranked per-tenant attribution and per-port \
                   accounting after the run (also embedded in --json).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write per-second samples as CSV.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Attach a telemetry registry and write its JSON snapshot \
                   (counters, histograms, per-tick gauge timeseries) to $(docv).")
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run the Fig. 3 end-to-end scenario")
    Term.(const attack $ variant_arg $ duration $ start $ offered $ every $ coarse
          $ backend_shards_arg $ batch $ pipeline $ upcall_queue $ attribution
          $ csv $ json)

(* --- monitor --- *)

let monitor variant duration start offered shards every use_json attribution =
  let open Pi_sim in
  let a = { Scenario.default_attack with Scenario.variant; start } in
  let metrics = Pi_telemetry.Metrics.create () in
  (* The monitor needs the live dataplane, which only exists inside the
     run — create it lazily on the first tick. *)
  let mon = ref None in
  let on_sample dp (s : Scenario.sample) =
    let m =
      match !mon with
      | Some m -> m
      | None ->
        let m = Monitor.create dp in
        mon := Some m;
        m
    in
    Monitor.observe m dp s;
    if int_of_float s.Scenario.time mod every = 0 then begin
      if use_json then print_string (Monitor.json m dp s)
      else begin
        (* top-like refresh: cursor home + clear to end, then the frame *)
        print_string "\x1b[H\x1b[2J";
        print_string (Monitor.frame m dp s);
        print_newline ()
      end;
      flush stdout
    end
  in
  let p =
    { Scenario.default_params with
      Scenario.duration;
      victim_offered_gbps = offered;
      attack = Some a;
      n_shards = shards;
      metrics = Some metrics;
      provenance = attribution;
      on_sample = Some on_sample }
  in
  let r = Scenario.run p in
  if not use_json then begin
    print_means r;
    match r.Scenario.perf with
    | Some p ->
      let module P = Pi_telemetry.Perf in
      let total = P.total_cycles p in
      Format.printf "per-stage cycles (all shards):@.";
      for st = 0 to P.n_stages - 1 do
        let c = P.stage_cycles p st in
        Format.printf "  %-12s %14.0f (%5.1f %%)@."
          (P.stage_name st ^ ":") c
          (if total = 0. then 0. else 100. *. c /. total)
      done
    | None -> ()
  end

let monitor_cmd =
  let dp = Pi_sim.Scenario.default_params in
  let da = Pi_sim.Scenario.default_attack in
  let duration =
    Arg.(value & opt (pos_float_conv "duration") dp.Pi_sim.Scenario.duration
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let start =
    Arg.(value & opt (nonneg_float_conv "start") da.Pi_sim.Scenario.start
         & info [ "start" ] ~docv:"SECONDS" ~doc:"Attack start time.")
  in
  let offered =
    Arg.(value
         & opt (pos_float_conv "offered") dp.Pi_sim.Scenario.victim_offered_gbps
         & info [ "offered" ] ~docv:"GBPS" ~doc:"Victim offered load.")
  in
  let every =
    Arg.(value & opt (pos_int_conv ()) 1
         & info [ "every" ] ~docv:"SECONDS"
             ~doc:"Refresh the view once per N simulated seconds.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Instead of the live view, print one byte-stable JSON \
                   snapshot line per refresh (sorted keys, fixed float \
                   format — suitable for goldens and scripted polling).")
  in
  let attribution =
    Arg.(value & opt bool true
         & info [ "attribution" ] ~docv:"BOOL"
             ~doc:"Rank suspect tenants from mask provenance (default on).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Watch the attack live: a top-like per-tick view of shard \
             masks, upcall queue depth and drops, windowed p50/p99 cycles \
             per packet, per-stage cycle shares and the prime suspect \
             tenant."
       ~man:
         [ `S Manpage.s_examples;
           `P "ovsdos monitor --shards 4";
           `P "ovsdos monitor --json --duration 90 > monitor.jsonl" ])
    Term.(const monitor $ variant_arg $ duration $ start $ offered $ shards_arg
          $ every $ json $ attribution)

(* --- run --- *)

let run_pis file json check pretty =
  match Pi_dsl.Parser.parse_file file with
  | Error d ->
    Format.eprintf "%a@." Pi_dsl.Diag.pp d;
    exit 2
  | Ok prog ->
    match Pi_dsl.Validate.check prog with
    | Error ds ->
      Format.eprintf "%a@." Pi_dsl.Diag.pp_list ds;
      exit 2
    | Ok v ->
      if pretty then print_string (Pi_dsl.Pretty.to_string prog)
      else if check then
        Printf.printf "%s: ok (%d run%s)\n" file
          (List.length v.Pi_dsl.Validate.runs)
          (if List.length v.Pi_dsl.Validate.runs = 1 then "" else "s")
      else begin
        let oc = Pi_dsl.Interp.run v in
        if json then print_string (Pi_dsl.Interp.json oc)
        else Format.printf "%a" Pi_dsl.Interp.pp_text oc;
        if not (Pi_dsl.Interp.passed oc) then exit 1
      end

let run_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE.pis" ~doc:"Scenario file to interpret.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the machine-readable report (stable key order and \
                   float formatting — suitable for golden tests) instead of \
                   the text summary.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Parse and validate only; do not run the scenario.")
  in
  let pretty =
    Arg.(value & flag
         & info [ "pretty" ]
             ~doc:"Print the canonical formatting of the (validated) file \
                   and exit.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Interpret a .pis scenario file: lower it onto the simulator, \
             run every run block and evaluate its assertions. Exits 1 on a \
             failed assertion, 2 on parse or validation diagnostics."
       ~man:
         [ `S Manpage.s_examples;
           `P "ovsdos run examples/fig3.pis";
           `P "ovsdos run --json examples/fig3.pis > fig3.json" ])
    Term.(const run_pis $ file $ json $ check $ pretty)

let main_cmd =
  let doc = "policy injection: a cloud dataplane DoS attack (SIGCOMM'18 reproduction)" in
  Cmd.group (Cmd.info "ovsdos" ~version:"1.0.0" ~doc)
    [ expand_cmd; predict_cmd; masks_cmd; dump_cmd; pcap_cmd; dpctl_cmd;
      detect_cmd; attack_cmd; monitor_cmd; run_cmd ]

let () = exit (Cmd.eval main_cmd)
