open Pi_sim

type check_result = {
  check : Validate.check;
  actual : float;
  ok : bool;
}

type run_result = {
  rr_name : string;
  rr_backend : Ast.backend;
  rr_report : Scenario.report;
  rr_checks : check_result list;
}

type outcome = {
  oc_scenario : string;
  oc_seed : int64;
  oc_duration : float;
  oc_runs : run_result list;
}

let attack_of (ac : Validate.attack_cfg) =
  { Scenario.variant = ac.Validate.ac_variant;
    start = ac.Validate.ac_start;
    stop = ac.Validate.ac_stop;
    trusted_src = ac.Validate.ac_trusted_src;
    allow_sport = ac.Validate.ac_sport;
    allow_dport = ac.Validate.ac_dport;
    proto = ac.Validate.ac_proto;
    covert_pkt_len = ac.Validate.ac_pkt_len;
    refresh_period = ac.Validate.ac_refresh;
    attacker_exact_per_tick = ac.Validate.ac_exact_per_tick }

let params_of_run (v : Validate.t) (rc : Validate.run_cfg) =
  let dc =
    let dc = Scenario.default_params.Scenario.datapath_config in
    let dc =
      if rc.Validate.rc_emc then dc
      else { dc with Pi_ovs.Datapath.emc_enabled = false }
    in
    let dc =
      match rc.Validate.rc_mask_limit with
      | None -> dc
      | Some _ as l -> { dc with Pi_ovs.Datapath.mask_limit = l }
    in
    let dc =
      match rc.Validate.rc_coarsen with
      | None -> dc
      | Some g ->
        { dc with
          Pi_ovs.Datapath.megaflow_transform =
            Some (Pi_mitigation.Heuristics.round_up_prefix ~granularity:g) }
    in
    match rc.Validate.rc_upcall_queue with
    | None -> dc
    | Some n ->
      { dc with Pi_ovs.Datapath.upcall_queue = Pi_ovs.Upcall_queue.bounded n }
  in
  let backend =
    match rc.Validate.rc_backend with
    | Ast.Pmd -> None  (* Scenario builds its own Pmd — bit for bit *)
    | Ast.Cacheless -> Some (Pi_mitigation.Cacheless.dataplane ())
  in
  { Scenario.default_params with
    Scenario.seed = v.Validate.seed;
    duration = v.Validate.duration;
    tick = v.Validate.tick;
    victim_offered_gbps = v.Validate.offered_gbps;
    victim_pkt_len = v.Validate.victim_pkt_len;
    victim_flows = v.Validate.victim_flows;
    victim_churn = v.Validate.victim_churn;
    victim_samples_per_tick = v.Validate.victim_samples_per_tick;
    victim_allowed_net = v.Validate.victim_allowed_net;
    background_services = v.Validate.background_services;
    attack = Option.map attack_of v.Validate.attack;
    n_shards = rc.Validate.rc_shards;
    batch_size = rc.Validate.rc_batch;
    backend;
    datapath_config = dc }

let metric_value (m : Validate.metric) (r : Scenario.report) =
  let st = r.Scenario.final_stats in
  match m with
  | Validate.Peak_masks -> float_of_int r.Scenario.peak_masks
  | Validate.Final_masks -> float_of_int st.Pi_ovs.Dataplane.masks
  | Validate.Final_megaflows -> float_of_int st.Pi_ovs.Dataplane.megaflows
  | Validate.Pre_gbps -> r.Scenario.pre_attack_mean_gbps
  | Validate.Post_gbps -> r.Scenario.post_attack_mean_gbps
  | Validate.Upcalls -> float_of_int st.Pi_ovs.Dataplane.upcalls
  | Validate.Upcall_drops -> float_of_int st.Pi_ovs.Dataplane.upcall_drops
  | Validate.Packets -> float_of_int st.Pi_ovs.Dataplane.packets

let holds (cmp : Ast.cmp) actual value =
  match cmp with
  | Ast.Le -> actual <= value
  | Ast.Ge -> actual >= value
  | Ast.Lt -> actual < value
  | Ast.Gt -> actual > value
  | Ast.Eq -> actual = value

let eval_check report (c : Validate.check) =
  let actual = metric_value c.Validate.c_metric report in
  { check = c; actual; ok = holds c.Validate.c_cmp actual c.Validate.c_value }

let run (v : Validate.t) =
  let oc_runs =
    List.map
      (fun (rc : Validate.run_cfg) ->
        let report = Scenario.run (params_of_run v rc) in
        { rr_name = rc.Validate.rc_name;
          rr_backend = rc.Validate.rc_backend;
          rr_report = report;
          rr_checks = List.map (eval_check report) rc.Validate.rc_checks })
      v.Validate.runs
  in
  { oc_scenario = v.Validate.scenario;
    oc_seed = v.Validate.seed;
    oc_duration = v.Validate.duration;
    oc_runs }

let run_passed rr = List.for_all (fun c -> c.ok) rr.rr_checks
let passed oc = List.for_all run_passed oc.oc_runs

(* --- JSON ----------------------------------------------------------- *)

(* Same conventions as Pi_telemetry.Export. *)
module Json = Pi_telemetry.Json

let json oc =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str s = Json.add_string b s in
  pf "{\n";
  pf "  \"scenario\": ";
  str oc.oc_scenario;
  pf ",\n";
  pf "  \"seed\": %Ld,\n" oc.oc_seed;
  pf "  \"duration\": %s,\n" (Json.float oc.oc_duration);
  pf "  \"ok\": %b,\n" (passed oc);
  pf "  \"runs\": [";
  List.iteri
    (fun i rr ->
      if i > 0 then pf ",";
      let r = rr.rr_report in
      let st = r.Scenario.final_stats in
      pf "\n    {\n";
      pf "      \"name\": ";
      str rr.rr_name;
      pf ",\n";
      pf "      \"backend\": ";
      str (Ast.backend_name rr.rr_backend);
      pf ",\n";
      pf "      \"pre_gbps\": %s,\n"
        (Json.float r.Scenario.pre_attack_mean_gbps);
      pf "      \"post_gbps\": %s,\n"
        (Json.float r.Scenario.post_attack_mean_gbps);
      pf "      \"peak_masks\": %d,\n" r.Scenario.peak_masks;
      pf "      \"final_masks\": %d,\n" st.Pi_ovs.Dataplane.masks;
      pf "      \"final_megaflows\": %d,\n" st.Pi_ovs.Dataplane.megaflows;
      pf "      \"packets\": %d,\n" st.Pi_ovs.Dataplane.packets;
      pf "      \"upcalls\": %d,\n" st.Pi_ovs.Dataplane.upcalls;
      pf "      \"upcall_drops\": %d,\n" st.Pi_ovs.Dataplane.upcall_drops;
      pf "      \"emc_hits\": %d,\n" st.Pi_ovs.Dataplane.emc_hits;
      pf "      \"emc_misses\": %d,\n" st.Pi_ovs.Dataplane.emc_misses;
      pf "      \"checks\": [";
      List.iteri
        (fun j c ->
          if j > 0 then pf ",";
          pf "\n        { \"metric\": ";
          str (Validate.metric_name c.check.Validate.c_metric);
          pf ", \"cmp\": ";
          str (Ast.cmp_name c.check.Validate.c_cmp);
          pf ", \"value\": %s, \"actual\": %s, \"ok\": %b }"
            (Json.float c.check.Validate.c_value)
            (Json.float c.actual) c.ok)
        rr.rr_checks;
      if rr.rr_checks <> [] then pf "\n      ";
      pf "],\n";
      pf "      \"ok\": %b\n" (run_passed rr);
      pf "    }")
    oc.oc_runs;
  if oc.oc_runs <> [] then pf "\n  ";
  pf "]\n}\n";
  Buffer.contents b

(* --- text ----------------------------------------------------------- *)

let pp_text ppf oc =
  Format.fprintf ppf "scenario %s (seed %Ld, duration %s s)@." oc.oc_scenario
    oc.oc_seed (Json.float oc.oc_duration);
  List.iter
    (fun rr ->
      let r = rr.rr_report in
      let st = r.Scenario.final_stats in
      Format.fprintf ppf "@.run %s [%s]@." rr.rr_name
        (Ast.backend_name rr.rr_backend);
      Format.fprintf ppf "  victim   pre %s Gbps   post %s Gbps@."
        (Json.float r.Scenario.pre_attack_mean_gbps)
        (Json.float r.Scenario.post_attack_mean_gbps);
      Format.fprintf ppf
        "  cache    peak %d masks   final %d masks / %d megaflows@."
        r.Scenario.peak_masks st.Pi_ovs.Dataplane.masks
        st.Pi_ovs.Dataplane.megaflows;
      Format.fprintf ppf
        "  slowpath %d upcalls (%d dropped) over %d packets@."
        st.Pi_ovs.Dataplane.upcalls st.Pi_ovs.Dataplane.upcall_drops
        st.Pi_ovs.Dataplane.packets;
      List.iter
        (fun c ->
          Format.fprintf ppf "  assert   %s %s %s  %s (actual %s)@."
            (Validate.metric_name c.check.Validate.c_metric)
            (Ast.cmp_name c.check.Validate.c_cmp)
            (Json.float c.check.Validate.c_value)
            (if c.ok then "ok" else "FAILED")
            (Json.float c.actual))
        rr.rr_checks;
      Format.fprintf ppf "  %s@."
        (if run_passed rr then "PASS" else "FAIL"))
    oc.oc_runs
