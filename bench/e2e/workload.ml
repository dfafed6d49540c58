(* The four workloads. Each one builds its inputs from the seed, sets the
   program up (timed, several times), then drives it in a closed loop:
   one burst in flight, the next pushed only after [process_batch]
   returns. Outputs are checked against the benchmark's own oracles. *)

open Pi_pkt
open Pi_classifier
open Pi_ovs
module Scenario = Pi_sim.Scenario
module Validate = Pi_dsl.Validate
module Interp = Pi_dsl.Interp

type config = {
  seed : int;
  seconds : float;  (* measured wall time of the run *)
  trace : bool;
  quick : bool;  (* tiny sizes, one set-up: a correctness smoke test *)
  examples : string;  (* directory holding fig3.pis and golden/fig3.json *)
}

type result = {
  attempted : int;  (* outputs checked *)
  failed : int;  (* outputs that were wrong *)
  metrics : (string * float) list;
  spans : Spans.t option;
}

(* --- the topology of the paper's Fig. 3, as Scenario lays it out --- *)

let burst = 32
let pkt_len = 64  (* bare forwarding at the smallest frame *)
let uplink = 1
let victim_ip = Ipv4_addr.of_string "10.1.0.2"
let attacker_ip = Ipv4_addr.of_string "10.1.0.3"
let victim_net = Ipv4_addr.Prefix.of_string "10.0.0.0/8"
let to_victim = Action.Output 2

(* The scenario's default dataplane: one deterministic PMD shard. *)
let pmd_config =
  { Pmd.default_config with
    Pmd.dp = Scenario.default_params.Scenario.datapath_config }

type policy = { acl : Pi_cms.Acl.t; dst : Ipv4_addr.t; allow : Action.t }

let victim_policy =
  { acl = Pi_cms.Acl.whitelist [ Pi_cms.Acl.entry ~src:victim_net () ];
    dst = victim_ip; allow = to_victim }

let attacker_spec variant =
  Policy_injection.Policy_gen.default_spec ~variant
    ~allow_src:(Ipv4_addr.of_string "10.0.0.10") ()

let attacker_policy spec =
  { acl = Policy_injection.Policy_gen.acl spec; dst = attacker_ip;
    allow = Action.Output 3 }

let compile policies =
  List.concat_map
    (fun p ->
      Pi_cms.Compile.compile ~dst:(Ipv4_addr.Prefix.make p.dst 32)
        ~allow:p.allow p.acl)
    policies

let covert_flows rng spec =
  Policy_injection.Packet_gen.make ~pkt_len ~spec ~dst:attacker_ip ()
  |> Policy_injection.Packet_gen.flows ~seed:(Prng.int64 rng)
  |> List.map (fun f -> Flow.with_field f Field.In_port uplink)
  |> Array.of_list

let victim_flow rng =
  Flow.make ~in_port:uplink
    ~ip_src:(Ipv4_addr.add victim_net.Ipv4_addr.Prefix.base (Prng.int rng 0x1000000))
    ~ip_dst:victim_ip ~ip_proto:Ipv4.proto_tcp
    ~tp_src:(1024 + Prng.int rng 64512) ~tp_dst:5001 ()

(* The benign oracle: the victim whitelist, evaluated by hand. *)
let victim_verdict f =
  if Ipv4_addr.Prefix.mem (Flow.ip_src f) victim_net
     && Ipv4_addr.equal (Flow.ip_dst f) victim_ip
  then to_victim
  else Action.Drop

(* --- dataplane workloads --- *)

(* A packet pool, the order it arrives in, and what to check. *)
type inputs = {
  flows : Flow.t array;
  expect : Action.t array;  (* the right action for each pool flow *)
  seq : int array;  (* arrival order (pool indices), replayed cyclically *)
  warm : Flow.t array;  (* sent during set-up, before timing *)
  policies : policy list;
  align : int;  (* a timed window ends on a multiple of this many packets *)
  check : (Pmd.t -> bool) option;  (* state after each complete pass *)
  round : bool;  (* each pass is a round: advance 11 s and revalidate first *)
}

type live = { pmd : Pmd.t; mutable now : float }

(* [flows] through [pmd] in bursts; [f i b] sees each processed burst,
   [i] being the position of its first packet. *)
let send ?(f = fun _ _ -> ()) pmd flows ~now =
  let b = Batch.create ~capacity:burst in
  let n = Array.length flows in
  let rec go i =
    if i < n then begin
      Batch.clear b;
      for j = i to min n (i + burst) - 1 do
        Batch.push b flows.(j) ~pkt_len
      done;
      Pmd.process_batch pmd b ~now;
      f i b;
      go (i + burst)
    end
  in
  go 0

(* Which of [flows] a second replay serves from the EMC. In the
   direct-mapped EMC (inserting on every miss) that is exactly the flows
   sharing their slot with no other flow: found from the outside, on a
   scratch dataplane. *)
let emc_fits flows =
  let pmd = Pmd.create ~config:pmd_config (Prng.create 0L) () in
  Pmd.install_rules pmd (compile [ victim_policy ]);
  let hit = Array.make (Array.length flows) false in
  send pmd flows ~now:0.;
  send pmd flows ~now:0. ~f:(fun i b ->
      Array.blit b.Batch.emc_hit 0 hit i b.Batch.n);
  hit

(* benign-emc: [n] victim flows that all fit in the EMC at once. Grown
   from fresh draws: a draw is kept when it collides with neither a kept
   flow nor another draw. *)
let benign rng ~quick =
  let n = if quick then 256 else 4096 in
  let rec grow kept tries =
    let need = n - Array.length kept in
    if need = 0 then kept
    else if tries = 0 then failwith "benign-emc: flows do not fit in the EMC"
    else begin
      let all = Array.append kept (Array.init need (fun _ -> victim_flow rng)) in
      let hit = emc_fits all in
      let fresh =
        List.filteri
          (fun i _ -> i >= Array.length kept && hit.(i))
          (Array.to_list all)
      in
      grow (Array.append kept (Array.of_list fresh)) (tries - 1)
    end
  in
  let flows = grow [||] 64 in
  let seq = Array.init n Fun.id in
  Prng.shuffle rng seq;
  { flows; expect = Array.map victim_verdict flows; seq;
    warm = Array.map (Array.get flows) (Array.append seq seq); policies = [ victim_policy ]; align = burst;
    check = None; round = false }

(* attack-walk: Fig. 3's steady state. One covert round mints every
   attack mask during set-up; the timed stream is 1 covert refresh in 8,
   the rest drawn from a victim pool larger than the EMC, so most victim
   packets walk every attack mask to reach the victim megaflow. *)
let attack_walk rng ~quick =
  let variant =
    if quick then Policy_injection.Variant.Src_dport
    else Policy_injection.Variant.Src_sport_dport
  in
  let spec = attacker_spec variant in
  let covert = covert_flows rng spec in
  let n_covert = Array.length covert in
  let n_victim = if quick then 4096 else 65536 in
  let flows = Array.append covert (Array.init n_victim (fun _ -> victim_flow rng)) in
  let expect =
    Array.mapi (fun i f -> if i < n_covert then Action.Drop else victim_verdict f) flows
  in
  let next_covert = ref 0 in
  let seq =
    Array.init n_victim (fun _ ->
        if Prng.int rng 8 = 0 then begin
          let c = !next_covert in
          next_covert := (c + 1) mod n_covert;
          c
        end
        else n_covert + Prng.int rng n_victim)
  in
  let min_masks = Policy_injection.Predict.variant_masks variant in
  { flows; expect; seq;
    warm =
      Array.append covert (Array.map (Array.get flows) (Array.sub seq 0 (n_victim / 32)));
    policies = [ victim_policy; attacker_policy spec ]; align = burst;
    check = Some (fun pmd -> Pmd.n_masks pmd >= min_masks); round = false }

(* mask-churn: the write side. Every round starts past the idle timeout
   with a revalidation that evicts the whole cache, so each covert packet
   misses, walks, upcalls and mints its megaflow and mask again. *)
let mask_churn rng =
  let variant = Policy_injection.Variant.Src_dport in
  let spec = attacker_spec variant in
  let flows = covert_flows rng spec in
  let seq = Array.init (Array.length flows) Fun.id in
  let masks = Policy_injection.Predict.variant_masks variant in
  { flows; expect = Array.map (fun _ -> Action.Drop) flows; seq; warm = flows;
    policies = [ attacker_policy spec ]; align = Array.length seq;
    check = Some (fun pmd -> Pmd.n_masks pmd = masks); round = true }

(* Compile, create, install and warm: the program's set-up. Also returns
   the wall time of the warm-up traffic alone. *)
let setup rng (w : inputs) =
  let pmd = Pmd.create ~config:pmd_config (Prng.split rng) () in
  Pmd.install_rules pmd (compile w.policies);
  let t0 = Meter.now_ns () in
  send pmd w.warm ~now:0.;
  ({ pmd; now = 0. }, Meter.seconds_since t0)

(* One timed stretch of closed-loop operations on one state. *)
type window = {
  packets : int;
  elapsed : float;
  gc : Meter.gc_window;
  w_attempted : int;
  w_failed : int;
  cycles : float;  (* modelled *)
  upcalls : int;
  emc_hits : int;
  emc_lookups : int;
}

let emc_counts pmd =
  let emc = Datapath.emc (Pmd.shard pmd 0) in
  (Emc.hits emc, Emc.hits emc + Emc.misses emc)

(* Bursts of [seq], replayed cyclically, for [seconds]. Each burst's
   latency is added to [lat], and the throughput of each 100 ms slice of
   the window (in packets/s) to [slices]. *)
let run_window p (w : inputs) (l : live) ~lat ~slices ~seconds =
  let pmd = l.pmd in
  let b = Batch.create ~capacity:burst in
  let len = Array.length w.seq in
  let attempted = ref 0 and failed = ref 0 and packets = ref 0 in
  let check () =
    match w.check with
    | Some ok ->
      incr attempted;
      if not (ok pmd) then incr failed
    | None -> ()
  in
  let c0 = Pmd.cycles_used pmd and u0 = Pmd.n_upcalls pmd in
  let h0, k0 = emc_counts pmd in
  let pos = ref 0 and go = ref true in
  let g = Meter.gc_open () in
  let t_start = Meter.now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let slice_ns = int_of_float (Float.min 0.1 (seconds /. 10.) *. 1e9) in
  let slice_t0 = ref t_start and slice_pkts = ref 0 in
  while !go do
    if !pos = 0 then begin
      check ();
      if w.round then begin
        l.now <- l.now +. 11.;
        ignore (Probe.revalidate p pmd ~now:l.now)
      end
    end;
    Batch.clear b;
    for i = !pos to !pos + burst - 1 do
      Batch.push b w.flows.(w.seq.(i)) ~pkt_len
    done;
    Meter.add lat (Probe.batch p pmd b ~now:l.now);
    for i = 0 to burst - 1 do
      if not (Action.equal (Batch.action b i) w.expect.(w.seq.(!pos + i))) then
        incr failed
    done;
    attempted := !attempted + burst;
    packets := !packets + burst;
    slice_pkts := !slice_pkts + burst;
    pos := (!pos + burst) mod len;
    let t = Meter.now_ns () in
    if t - !slice_t0 >= slice_ns then begin
      Meter.add slices (!slice_pkts * 1_000_000_000 / (t - !slice_t0));
      slice_t0 := t;
      slice_pkts := 0
    end;
    if !pos mod w.align = 0 && t >= deadline then go := false
  done;
  let elapsed = Meter.seconds_since t_start in
  let gc = Meter.gc_close g in
  if !pos = 0 then check ();
  let h1, k1 = emc_counts pmd in
  { packets = !packets; elapsed; gc; w_attempted = !attempted; w_failed = !failed;
    cycles = Pmd.cycles_used pmd -. c0; upcalls = Pmd.n_upcalls pmd - u0;
    emc_hits = h1 - h0; emc_lookups = k1 - k0 }

(* The windows of a run added up. *)
let pool ws =
  List.fold_left
    (fun a w ->
      { packets = a.packets + w.packets; elapsed = a.elapsed +. w.elapsed;
        gc =
          { Meter.words = a.gc.Meter.words +. w.gc.Meter.words;
            minor_gcs = a.gc.Meter.minor_gcs + w.gc.Meter.minor_gcs;
            major_gcs = a.gc.Meter.major_gcs + w.gc.Meter.major_gcs };
        w_attempted = a.w_attempted + w.w_attempted;
        w_failed = a.w_failed + w.w_failed; cycles = a.cycles +. w.cycles;
        upcalls = a.upcalls + w.upcalls; emc_hits = a.emc_hits + w.emc_hits;
        emc_lookups = a.emc_lookups + w.emc_lookups })
    { packets = 0; elapsed = 0.;
      gc = { Meter.words = 0.; minor_gcs = 0; major_gcs = 0 };
      w_attempted = 0; w_failed = 0; cycles = 0.; upcalls = 0; emc_hits = 0;
      emc_lookups = 0 }
    ws

(* --- fig3-scenario --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

type fig3_inputs = { file : string; src : string; golden : string option; shift : int64 }

(* Seed 1 runs the file exactly as written and must reproduce its golden
   report; seed [n] shifts the file's seed by [n - 1], and then only the
   file's own assertions are checked. *)
let fig3_inputs cfg =
  let file = Filename.concat cfg.examples "fig3.pis" in
  { file; src = read_file file;
    golden =
      (if cfg.seed = 1 then
         Some (read_file (Filename.concat cfg.examples "golden/fig3.json"))
       else None);
    shift = Int64.of_int (cfg.seed - 1) }

let or_fail what = function
  | Ok x -> x
  | Error diags ->
    List.iter (fun d -> prerr_endline (Pi_dsl.Diag.to_string d)) diags;
    failwith ("fig3-scenario: " ^ what)

type phases = { parse_s : float; validate_s : float; lower_s : float }

(* Parse, validate and lower: the scenario's set-up. *)
let fig3_setup fi =
  let t0 = Meter.now_ns () in
  let prog =
    or_fail "parse" (Result.map_error (fun d -> [ d ]) (Pi_dsl.Parser.parse ~file:fi.file fi.src))
  in
  let t1 = Meter.now_ns () in
  let v = or_fail "validate" (Validate.check prog) in
  let v = { v with Validate.seed = Int64.add v.Validate.seed fi.shift } in
  let t2 = Meter.now_ns () in
  let runs = List.map (fun rc -> (rc, Interp.params_of_run v rc)) v.Validate.runs in
  let t3 = Meter.now_ns () in
  let s a b = float_of_int (b - a) *. 1e-9 in
  ((v, runs), { parse_s = s t0 t1; validate_s = s t1 t2; lower_s = s t2 t3 })

let holds (cmp : Pi_dsl.Ast.cmp) a v =
  match cmp with
  | Pi_dsl.Ast.Le -> a <= v
  | Pi_dsl.Ast.Ge -> a >= v
  | Pi_dsl.Ast.Lt -> a < v
  | Pi_dsl.Ast.Gt -> a > v
  | Pi_dsl.Ast.Eq -> a = v

(* The Pmd config [Scenario.run] builds for [params.backend = None]. *)
let scenario_pmd (p : Scenario.params) =
  { Pmd.default_config with
    Pmd.n_shards = p.Scenario.n_shards;
    batch_size = p.Scenario.batch_size;
    parallel = true;
    batch_cycles = p.Scenario.batch_cycles;
    mode = (if p.Scenario.pipeline then Pmd.Pipeline else Pmd.Deterministic);
    dp = p.Scenario.datapath_config }

type fig3_reps = {
  mutable windows : window list;  (* one per repetition of the file *)
  mutable walls : float list;  (* wall s of each scenario run *)
  mutable attack_ticks : float list;  (* wall s of each run's attack-arming tick *)
  mutable last_dp : Dataplane.t option;
}

(* One repetition runs every run block of the file once, each on a fresh
   dataplane; an operation is one simulated tick, timed between
   [on_sample] calls (the first from the start of [Scenario.run]). With
   [probe], every dataplane call goes through the bench's own
   [Dataplane.S] wrapper ([Probe.backend]); the golden check then proves
   the substitution changed nothing. *)
let fig3_rep ?probe fi lat reps ((v : Validate.t), runs) =
  let spans = Option.bind probe (fun p -> p.Probe.spans) in
  let packets = ref 0 and cycles = ref 0. and upcalls = ref 0 in
  let hits = ref 0 and lookups = ref 0 in
  let g = Meter.gc_open () in
  let t_start = Meter.now_ns () in
  let run_one (rc, (params : Scenario.params)) =
    let n_ticks =
      int_of_float (ceil (params.Scenario.duration /. params.Scenario.tick))
    in
    let attack_tick =
      match params.Scenario.attack with
      | Some a -> int_of_float (a.Scenario.start /. params.Scenario.tick)
      | None -> -1
    in
    let tick = ref 0 and last = ref (Meter.now_ns ()) in
    let open_tick () = Option.iter (fun sp -> Spans.enter sp Spans.tick) spans in
    let on_sample dp _ =
      Option.iter Spans.leave spans;
      let t = Meter.now_ns () in
      Meter.add lat (t - !last);
      if !tick = attack_tick then
        reps.attack_ticks <- (float_of_int (t - !last) *. 1e-9) :: reps.attack_ticks;
      last := t;
      reps.last_dp <- Some dp;
      incr tick;
      if !tick < n_ticks then open_tick ()
    in
    let backend =
      match (probe, params.Scenario.backend) with
      | Some p, None ->
        Some (Probe.backend p ?tss_config:params.Scenario.tss_config (scenario_pmd params))
      | _, b -> b
    in
    let params = { params with Scenario.on_sample = Some on_sample; backend } in
    open_tick ();
    let t0 = Meter.now_ns () in
    let report = Scenario.run params in
    reps.walls <- Meter.seconds_since t0 :: reps.walls;
    let st = report.Scenario.final_stats in
    packets := !packets + st.Dataplane.packets;
    cycles := !cycles +. st.Dataplane.cycles;
    upcalls := !upcalls + st.Dataplane.upcalls;
    hits := !hits + st.Dataplane.emc_hits;
    lookups := !lookups + st.Dataplane.emc_hits + st.Dataplane.emc_misses;
    { Interp.rr_name = rc.Validate.rc_name;
      rr_backend = rc.Validate.rc_backend;
      rr_report = report;
      rr_checks =
        List.map
          (fun (c : Validate.check) ->
            let actual = Interp.metric_value c.Validate.c_metric report in
            { Interp.check = c; actual;
              ok = holds c.Validate.c_cmp actual c.Validate.c_value })
          rc.Validate.rc_checks }
  in
  let oc =
    { Interp.oc_scenario = v.Validate.scenario; oc_seed = v.Validate.seed;
      oc_duration = v.Validate.duration; oc_runs = List.map run_one runs }
  in
  let elapsed = Meter.seconds_since t_start in
  let gc = Meter.gc_close g in
  let ok =
    match fi.golden with
    | Some g -> String.equal (Interp.json oc) g
    | None -> Interp.passed oc
  in
  if not ok then prerr_string (Interp.json oc);
  reps.windows <-
    { packets = !packets; elapsed; gc; w_attempted = 1; w_failed = (if ok then 0 else 1);
      cycles = !cycles; upcalls = !upcalls; emc_hits = !hits; emc_lookups = !lookups }
    :: reps.windows

(* Repetitions back to back until [seconds] have passed (at least one). *)
let fig3_window ?probe fi lowered ~lat ~seconds =
  let reps = { windows = []; walls = []; attack_ticks = []; last_dp = None } in
  let deadline = Meter.now_ns () + int_of_float (seconds *. 1e9) in
  while reps.windows = [] || Meter.now_ns () < deadline do
    fig3_rep ?probe fi lat reps lowered
  done;
  reps

(* --- metrics --- *)

(* The end-to-end metrics of a run's untraced windows, each on its own
   freshly set-up state, given their median throughput and [lat], the
   latencies of all of them. *)
let end_to_end ~setup_s ~pkts_per_s ~state ~lat ws =
  let all = pool ws in
  let pkts = float_of_int all.packets in
  let p50, p99 =
    match Meter.percentiles lat [ 0.5; 0.99 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  [ ("setup_s", setup_s);
    ("pkts_per_s", pkts_per_s);
    ("op_us_p50", p50 /. 1e3);
    ("op_us_p99", p99 /. 1e3);
    ("state_mb", state);
    ("segments", float_of_int (List.length ws));
    ("op_samples", float_of_int (Meter.count lat));
    ("alloc_words_per_pkt", all.gc.Meter.words /. pkts);
    ("fail_frac", float_of_int all.w_failed /. float_of_int (max 1 all.w_attempted)) ]

let ns_per p total = float_of_int total /. float_of_int (max 1 p.Probe.packets)

(* The per-layer metrics: [p0]/[w0] pooled over the untraced windows,
   [p1]/[w1] and the spans over the traced ones. *)
let per_layer ~compile_s ~masks ~entries p0 (w0 : window) p1 (w1 : window) sp =
  let t name = ns_per p1 (Spans.total_ns sp name) in
  let steer = t Spans.steer and emc = t Spans.emc in
  let walk = t Spans.walk and upcall = t Spans.upcall in
  let ns_per_pkt = ns_per p0 p0.Probe.real_ns in
  let cycles_per_pkt = w0.cycles /. float_of_int (max 1 w0.packets) in
  let cpu_hz = pmd_config.Pmd.dp.Datapath.cost.Cost_model.cpu_hz in
  let per_pkt (w : window) = w.elapsed /. float_of_int (max 1 w.packets) in
  let sweeps = max 1 p1.Probe.sweeps in
  let per_unit ns n = if n = 0 then nan else float_of_int ns /. float_of_int n in
  [ ("datapath.ns_per_pkt", ns_per_pkt);
    ("pmd.steer_ns_per_pkt", steer);
    ("emc.probe_ns_per_pkt", emc);
    ("emc.hit_ratio", float_of_int w1.emc_hits /. float_of_int (max 1 w1.emc_lookups));
    ("megaflow.walk_ns_per_pkt", walk);
    ("megaflow.probes_per_walk",
     float_of_int p1.Probe.probes /. float_of_int (max 1 p1.Probe.walked));
    ("megaflow.masks", float_of_int masks);
    ("megaflow.entries", float_of_int entries);
    ("megaflow.revalidate_us", float_of_int p1.Probe.sweep_ns /. float_of_int sweeps /. 1e3);
    ("megaflow.evicted_per_sweep", float_of_int p1.Probe.evicted /. float_of_int sweeps);
    ("slowpath.upcall_ns_per_pkt", upcall);
    ("slowpath.upcalls_per_pkt", float_of_int w0.upcalls /. float_of_int (max 1 w0.packets));
    ("datapath.residual_ns_per_pkt", ns_per_pkt -. (steer +. emc +. walk +. upcall));
    ("cost_model.cycles_per_pkt", cycles_per_pkt);
    ("cost_model.measured_over_modelled", ns_per_pkt /. (cycles_per_pkt /. cpu_hz *. 1e9));
    ("gc.minor_words_per_pkt", w0.gc.Meter.words /. float_of_int (max 1 w0.packets));
    ("gc.minor_per_mpkt",
     float_of_int w0.gc.Meter.minor_gcs *. 1e6 /. float_of_int (max 1 w0.packets));
    ("gc.major_collections", float_of_int w0.gc.Meter.major_gcs);
    ("cms.compile_ms", compile_s *. 1e3);
    ("trace.overhead", per_pkt w1 /. per_pkt w0);
    (* per unit of work: undefined (nan) where the shadow did none *)
    ("megaflow.ns_per_probe", per_unit (Spans.total_ns sp Spans.walk) p1.Probe.probes);
    ("slowpath.upcall_ns", per_unit (Spans.total_ns sp Spans.upcall) p1.Probe.upcalled);
    ("trace.spans_stored", float_of_int (Spans.stored sp));
    ("trace.spans_dropped", float_of_int (Spans.dropped sp)) ]

(* Windows per run, each on its own set-up, and the least wall time all
   set-ups of a run take together: cheap set-ups are repeated (and their
   states discarded) until then, so [setup_s] is a median of many. *)
let segments cfg = if cfg.quick then 2 else 5
let min_setup_s cfg = if cfg.quick then 0. else 0.3

let compile_s cfg policies =
  Meter.median
    (fst (Meter.repeat ~min_reps:1 ~min_s:(min_setup_s cfg /. 3.) (fun () -> compile policies)))

(* A dataplane workload end to end: inputs from the seed, then per
   segment a timed set-up and a measured window on the fresh state (an
   untraced and a traced half of it under --trace). *)
let run_dataplane cfg make =
  let rng = Prng.create (Int64.of_int cfg.seed) in
  let w = make rng in
  let k = segments cfg in
  let sp = if cfg.trace then Some (Spans.create ()) else None in
  let p0 = Probe.create () and p1 = Probe.create ?spans:sp () in
  let lat0 = Meter.samples () and lat1 = Meter.samples () in
  let slices0 = Meter.samples () and slices1 = Meter.samples () in
  let seconds = cfg.seconds /. float_of_int (if cfg.trace then 2 * k else k) in
  let setups = ref [] and warms = ref [] and w0s = ref [] and w1s = ref [] in
  let state = ref nan and last = ref None in
  for _ = 1 to k do
    last := None;
    let t0 = Meter.now_ns () in
    let l, warm = setup (Prng.copy rng) w in
    setups := Meter.seconds_since t0 :: !setups;
    warms := warm :: !warms;
    Gc.compact ();
    w0s := run_window p0 w l ~lat:lat0 ~slices:slices0 ~seconds :: !w0s;
    state := Meter.state_mb l.pmd;
    if cfg.trace then w1s := run_window p1 w l ~lat:lat1 ~slices:slices1 ~seconds :: !w1s;
    last := Some l
  done;
  let l = Option.get !last in
  let spent = List.fold_left ( +. ) 0. !setups in
  let extra, _ =
    if spent >= min_setup_s cfg then ([], None)
    else
      Meter.repeat ~min_reps:0 ~min_s:(min_setup_s cfg -. spent) (fun () ->
          ignore (setup (Prng.copy rng) w))
  in
  let e2e =
    (* the median 100 ms slice, so short interruptions of the machine
       do not move the throughput *)
    end_to_end ~setup_s:(Meter.median (!setups @ extra))
      ~pkts_per_s:(List.hd (Meter.percentiles slices0 [ 0.5 ]))
      ~state:!state ~lat:lat0 !w0s
    @ [ ("datapath.warmup_s", Meter.median !warms) ]
  in
  let all = pool (!w0s @ !w1s) in
  let layers =
    match sp with
    | None -> []
    | Some sp ->
      (* one timed sweep where the workload has none of its own *)
      if p1.Probe.sweeps = 0 then ignore (Probe.revalidate p1 l.pmd ~now:l.now);
      per_layer ~compile_s:(compile_s cfg w.policies) ~masks:(Pmd.n_masks l.pmd)
        ~entries:(Pmd.n_megaflows l.pmd) p0 (pool !w0s) p1 (pool !w1s) sp
  in
  { attempted = all.w_attempted; failed = all.w_failed; metrics = e2e @ layers;
    spans = sp }

(* The file's own policies, as [Scenario.run] compiles them: the victim
   whitelist and the injected attacker policy. *)
let fig3_policies (v : Validate.t) =
  let victim =
    { victim_policy with
      acl =
        Pi_cms.Acl.whitelist
          [ Pi_cms.Acl.entry ~src:v.Validate.victim_allowed_net () ] }
  in
  match v.Validate.attack with
  | None -> [ victim ]
  | Some a ->
    let spec =
      { (attacker_spec a.Validate.ac_variant) with
        Policy_injection.Policy_gen.allow_src = a.Validate.ac_trusted_src;
        allow_sport = a.Validate.ac_sport;
        allow_dport = a.Validate.ac_dport;
        proto = a.Validate.ac_proto }
    in
    [ victim; attacker_policy spec ]

let run_fig3 cfg =
  let fi = fig3_inputs cfg in
  let phases = ref [] in
  let setups, lowered =
    Meter.repeat ~min_reps:1 ~min_s:(min_setup_s cfg) (fun () ->
        let r, ph = fig3_setup fi in
        phases := ph :: !phases;
        r)
  in
  let lowered = Option.get lowered in
  Gc.compact ();
  let med f = Meter.median (List.map f !phases) *. 1e3 in
  let dsl =
    [ ("dsl.parse_ms", med (fun p -> p.parse_s));
      ("dsl.validate_ms", med (fun p -> p.validate_s));
      ("dsl.lower_ms", med (fun p -> p.lower_s)) ]
  in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let p0 = Probe.create () and lat = Meter.samples ~capacity:4096 () in
  let r0 =
    fig3_window ?probe:(if cfg.trace then Some p0 else None) fi lowered ~lat ~seconds
  in
  let state = match r0.last_dp with Some dp -> Meter.state_mb dp | None -> nan in
  let e2e =
    end_to_end ~setup_s:(Meter.median setups)
      ~pkts_per_s:
        (Meter.median (List.map (fun w -> float_of_int w.packets /. w.elapsed) r0.windows))
      ~state ~lat r0.windows
    @ [ ("run_s", Meter.median r0.walls) ]
    @ dsl
  in
  if not cfg.trace then begin
    let all = pool r0.windows in
    { attempted = all.w_attempted; failed = all.w_failed; metrics = e2e; spans = None }
  end
  else begin
    let sp = Spans.create () in
    let p1 = Probe.create ~spans:sp () in
    let r1 = fig3_window ~probe:p1 fi lowered ~lat:(Meter.samples ~capacity:4096 ()) ~seconds in
    let stats =
      match r1.last_dp with
      | Some dp -> Dataplane.stats dp
      | None -> invalid_arg "fig3-scenario: no tick ran"
    in
    let ticks = max 1 (Spans.count sp Spans.tick) in
    let tick_total = Spans.total_ns sp Spans.tick and tick_self = Spans.self_ns sp Spans.tick in
    let all = pool (r0.windows @ r1.windows) in
    { attempted = all.w_attempted; failed = all.w_failed;
      metrics =
        e2e
        @ [ ("scenario.first_attack_tick_ms", Meter.median r1.attack_ticks *. 1e3);
            ("scenario.self_ms_per_tick", float_of_int tick_self /. float_of_int ticks /. 1e6);
            ("scenario.dataplane_share",
             1. -. (float_of_int tick_self /. float_of_int (max 1 tick_total))) ]
        @ per_layer ~compile_s:(compile_s cfg (fig3_policies (fst lowered)))
            ~masks:stats.Dataplane.masks ~entries:stats.Dataplane.megaflows p0
            (pool r0.windows) p1 (pool r1.windows) sp;
      spans = Some sp }
  end

let names = [ "benign-emc"; "attack-walk"; "mask-churn"; "fig3-scenario" ]

let run cfg = function
  | "benign-emc" -> run_dataplane cfg (benign ~quick:cfg.quick)
  | "attack-walk" -> run_dataplane cfg (attack_walk ~quick:cfg.quick)
  | "mask-churn" -> run_dataplane cfg mask_churn
  | "fig3-scenario" -> run_fig3 cfg
  | w -> invalid_arg ("unknown workload " ^ w)
