open Pi_sim
open Policy_injection

(* Scaled-down scenarios so the suite stays fast; the full Fig. 3
   parameters run in bench/main.exe. *)
let small_params ?attack () =
  { Scenario.default_params with
    Scenario.duration = 30.;
    victim_flows = 500;
    victim_samples_per_tick = 100;
    attack }

let small_attack variant =
  { Scenario.default_attack with
    Scenario.variant;
    start = 10.;
    refresh_period = 2.;
    attacker_exact_per_tick = 32 }

let test_no_attack_baseline () =
  let r = Scenario.run (small_params ()) in
  Alcotest.(check (float 1e-6)) "full offered throughput" 1.0
    r.Scenario.pre_attack_mean_gbps;
  Alcotest.(check bool)
    (Printf.sprintf "the usual handful of masks (got %d)" r.Scenario.peak_masks)
    true
    (r.Scenario.peak_masks >= 2 && r.Scenario.peak_masks <= 40);
  List.iter
    (fun s ->
      if s.Scenario.loss > 1e-9 then Alcotest.fail "loss without attack")
    r.Scenario.samples;
  Alcotest.(check int) "one sample per tick" 30 (List.length r.Scenario.samples);
  Alcotest.(check (float 1e-9)) "pre-attack mean is the samples' mean"
    r.Scenario.pre_attack_mean_gbps
    (List.fold_left (fun acc s -> acc +. s.Scenario.victim_gbps) 0.
       r.Scenario.samples
     /. 30.)

let test_src_dport_attack () =
  let r =
    Scenario.run (small_params ~attack:(small_attack Variant.Src_dport) ())
  in
  (* Co-resident services' whitelists perturb the shared tries, so a
     busy host yields slightly fewer than the clean-room 512 masks. *)
  Alcotest.(check bool)
    (Printf.sprintf "masks reach ~512 (got %d)" r.Scenario.peak_masks)
    true
    (r.Scenario.peak_masks >= 512 * 85 / 100);
  (* Victim forwarding cost must have exploded even if the offered load
     still fits the remaining CPU. *)
  let cpp_pre =
    List.filter_map
      (fun s ->
        if s.Scenario.time < 10. then Some s.Scenario.victim_cycles_per_pkt
        else None)
      r.Scenario.samples
  and cpp_post =
    List.filter_map
      (fun s ->
        if s.Scenario.time >= 15. then Some s.Scenario.victim_cycles_per_pkt
        else None)
      r.Scenario.samples
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Alcotest.(check bool) "per-packet cost grew >5x" true
    (mean cpp_post > 5. *. mean cpp_pre)

let test_full_attack_collapses () =
  let r =
    Scenario.run (small_params ~attack:(small_attack Variant.Src_sport_dport) ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "masks reach ~8192 (got %d)" r.Scenario.peak_masks)
    true
    (r.Scenario.peak_masks >= 8192 * 85 / 100);
  Alcotest.(check bool)
    (Printf.sprintf "throughput collapses below 20%% (got %.3f)"
       r.Scenario.post_attack_mean_gbps)
    true
    (r.Scenario.post_attack_mean_gbps < 0.2 *. r.Scenario.pre_attack_mean_gbps)

let test_attack_stop_recovers_masks () =
  let attack =
    { (small_attack Variant.Src_only) with Scenario.stop = Some 15. }
  in
  let r = Scenario.run (small_params ~attack ()) in
  (* Megaflows idle out within the 10 s timeout after the stream stops. *)
  match List.rev r.Scenario.samples with
  | last :: _ ->
    (* The 32 attack masks idle out; what survives is the victim's own
       handful of megaflow shapes. *)
    Alcotest.(check bool)
      (Printf.sprintf "masks decay after stop (got %d, peak %d)"
         last.Scenario.n_masks r.Scenario.peak_masks)
      true
      (last.Scenario.n_masks * 2 < r.Scenario.peak_masks)
  | [] -> Alcotest.fail "no samples"

let test_mitigated_scenario () =
  (* Coarsened un-wildcarding keeps the same attack harmless. *)
  let dc =
    { Scenario.default_params.Scenario.datapath_config with
      Pi_ovs.Datapath.megaflow_transform =
        Some (Pi_mitigation.Heuristics.round_up_prefix ~granularity:8) }
  in
  let p =
    { (small_params ~attack:(small_attack Variant.Src_sport_dport) ()) with
      Scenario.datapath_config = dc }
  in
  let r = Scenario.run p in
  Alcotest.(check bool)
    (Printf.sprintf "masks bounded (got %d)" r.Scenario.peak_masks)
    true
    (r.Scenario.peak_masks <= 64);
  Alcotest.(check bool)
    (Printf.sprintf "throughput preserved (got %.3f)"
       r.Scenario.post_attack_mean_gbps)
    true
    (r.Scenario.post_attack_mean_gbps > 0.8 *. r.Scenario.pre_attack_mean_gbps)

let test_attribution_names_the_attacker () =
  (* Fig. 3 with provenance on: attacker pod (tenant 3) plus the victim
     and 8 background tenants all share the host — attribution must rank
     the attacker #1 by induced masks, and a detector alarm fed the top
     suspect must carry its port and offending rules. *)
  let p =
    { (small_params ~attack:(small_attack Variant.Src_dport) ()) with
      Scenario.provenance = true }
  in
  let r = Scenario.run p in
  let summary =
    match r.Scenario.attribution with
    | Some s -> s
    | None -> Alcotest.fail "provenance on but no attribution report"
  in
  let suspect =
    match Pi_ovs.Provenance.top_suspect summary with
    | Some row -> row
    | None -> Alcotest.fail "no suspect under an active attack"
  in
  Alcotest.(check int) "attacker tenant ranked #1" 3
    suspect.Pi_ovs.Provenance.t_tenant;
  (match summary.Pi_ovs.Provenance.rows with
   | _ :: runner_up :: _ ->
     Alcotest.(check bool) "attacker dominates the mask count" true
       (suspect.Pi_ovs.Provenance.t_masks
        > 10 * max 1 runner_up.Pi_ovs.Provenance.t_masks)
   | _ -> Alcotest.fail "benign tenants missing from the report");
  Alcotest.(check (list Alcotest.int)) "covert stream entered on the uplink"
    [ 1 ] suspect.Pi_ovs.Provenance.t_ports;
  Alcotest.(check bool) "offending ACL rule ids recorded" true
    (suspect.Pi_ovs.Provenance.t_rules <> []);
  let det = Pi_mitigation.Detector.create () in
  let alarm =
    match
      Pi_mitigation.Detector.observe det ~now:p.Scenario.duration ~suspect
        ~n_masks:r.Scenario.peak_masks ~avg_probes:1. ()
    with
    | Some a -> a
    | None -> Alcotest.fail "peak mask count must raise an alarm"
  in
  match alarm.Pi_mitigation.Detector.suspect with
  | Some s ->
    Alcotest.(check int) "alarm names the tenant" 3 s.Pi_ovs.Provenance.t_tenant;
    Alcotest.(check (list Alcotest.int)) "alarm carries the port ids" [ 1 ]
      s.Pi_ovs.Provenance.t_ports;
    Alcotest.(check bool) "alarm carries the rule ids" true
      (List.for_all
         (fun (rs : Pi_ovs.Provenance.rule_share) ->
           rs.Pi_ovs.Provenance.r_rule >= 0)
         s.Pi_ovs.Provenance.t_rules
       && s.Pi_ovs.Provenance.t_rules <> [])
  | None -> Alcotest.fail "alarm lost its suspect"

let test_provenance_parity () =
  (* Turning provenance on must not move a single sample: same masks,
     same throughput, same final stats. *)
  let p = small_params ~attack:(small_attack Variant.Src_only) () in
  let off = Scenario.run p
  and on = Scenario.run { p with Scenario.provenance = true } in
  List.iter2
    (fun (x : Scenario.sample) (y : Scenario.sample) ->
      if x.Scenario.victim_gbps <> y.Scenario.victim_gbps
         || x.Scenario.n_masks <> y.Scenario.n_masks
         || x.Scenario.n_megaflows <> y.Scenario.n_megaflows
         || x.Scenario.victim_cycles_per_pkt <> y.Scenario.victim_cycles_per_pkt
      then Alcotest.failf "provenance changed t=%.1f" x.Scenario.time)
    off.Scenario.samples on.Scenario.samples;
  Alcotest.(check int) "same final upcalls"
    off.Scenario.final_stats.Pi_ovs.Dataplane.upcalls
    on.Scenario.final_stats.Pi_ovs.Dataplane.upcalls;
  Alcotest.(check (float 1e-9)) "same final cycles"
    off.Scenario.final_stats.Pi_ovs.Dataplane.cycles
    on.Scenario.final_stats.Pi_ovs.Dataplane.cycles

let test_deterministic () =
  let p = small_params ~attack:(small_attack Variant.Src_only) () in
  let a = Scenario.run p and b = Scenario.run p in
  Alcotest.(check int) "same sample count"
    (List.length a.Scenario.samples) (List.length b.Scenario.samples);
  List.iter2
    (fun (x : Scenario.sample) (y : Scenario.sample) ->
      if x.Scenario.victim_gbps <> y.Scenario.victim_gbps
         || x.Scenario.n_masks <> y.Scenario.n_masks then
        Alcotest.failf "samples diverge at t=%.1f" x.Scenario.time)
    a.Scenario.samples b.Scenario.samples

(* A pmd backend whose forced EMC insert checks that the scenario pairs
   each covert flow with a megaflow that matches it. *)
let checked_pmd config : Pi_ovs.Dataplane.backend =
  let (module B) = Pi_ovs.Dataplane.pmd ~config () in
  (module struct
    include B

    let emc_insert_forced d flow (e : Pi_ovs.Megaflow.entry) =
      if not (Pi_classifier.Mask.matches e.Pi_ovs.Megaflow.mask
                ~key:e.Pi_ovs.Megaflow.key flow)
      then Alcotest.fail "virtual EMC insert pairs a flow with a foreign megaflow";
      B.emc_insert_forced d flow e
  end)

let test_deferred_covert_entries () =
  (* Deferred upcalls: a covert miss is dropped and queued, so it has no
     megaflow yet and must not inherit the previous packet's. *)
  let p = small_params ~attack:(small_attack Variant.Src_dport) () in
  let dp =
    { p.Scenario.datapath_config with
      Pi_ovs.Datapath.upcall_queue = Pi_ovs.Upcall_queue.bounded 64 }
  in
  let backend =
    checked_pmd { Pi_ovs.Pmd.default_config with Pi_ovs.Pmd.dp = dp }
  in
  let r =
    Scenario.run
      { p with Scenario.datapath_config = dp; backend = Some backend }
  in
  Alcotest.(check bool) "upcalls were deferred and dropped" true
    (r.Scenario.final_stats.Pi_ovs.Dataplane.upcall_drops > 0)

(* The covert packets a tick simulates exactly go out in bursts of
   [batch_size]. Bursting must not move a result: every configuration
   gives the same samples, final stats and attribution at burst sizes 1
   and 32. The flow-limit cases sit just above the first round's
   megaflow count, where an unbounded burst would evict entries that
   later flows of the same burst were judged by. *)
let covert_burst_params =
  let p = small_params ~attack:(small_attack Variant.Src_sport_dport) () in
  let dc = p.Scenario.datapath_config in
  let flow_limit n =
    { Scenario.default_params with
      Scenario.duration = 30.;
      attack = Some { Scenario.default_attack with Scenario.start = 5. };
      datapath_config =
        { dc with
          Pi_ovs.Datapath.megaflow =
            { dc.Pi_ovs.Datapath.megaflow with
              Pi_ovs.Megaflow.max_entries = n } } }
  in
  [ ("defaults", p);
    ("3 shards", { p with Scenario.n_shards = 3 });
    ("pipeline", { p with Scenario.pipeline = true; n_shards = 2 });
    ( "upcall queue",
      { p with
        Scenario.datapath_config =
          { dc with
            Pi_ovs.Datapath.upcall_queue = Pi_ovs.Upcall_queue.bounded 64 } } );
    ( "mask limit",
      { p with
        Scenario.datapath_config =
          { dc with Pi_ovs.Datapath.mask_limit = Some 100 } } );
    ( "transform",
      { p with
        Scenario.datapath_config =
          { dc with
            Pi_ovs.Datapath.megaflow_transform =
              Some (Pi_mitigation.Heuristics.round_up_prefix ~granularity:8) } } );
    ( "cacheless",
      { p with Scenario.backend = Some (Pi_mitigation.Cacheless.dataplane ()) } );
    ("provenance", { p with Scenario.provenance = true });
    ("flow limit 8200", flow_limit 8200);
    ("flow limit 8220", flow_limit 8220);
    ("flow limit 8240", flow_limit 8240) ]

(* Rule ids come from a process-wide counter, so two runs' attributions
   agree only up to them. *)
let attribution_sans_rule_ids (r : Scenario.report) =
  Option.map
    (fun (s : Pi_ovs.Provenance.summary) ->
      ( List.map
          (fun (row : Pi_ovs.Provenance.row) ->
            { row with
              Pi_ovs.Provenance.t_rules =
                List.map
                  (fun (rs : Pi_ovs.Provenance.rule_share) ->
                    { rs with Pi_ovs.Provenance.r_rule = 0 })
                  row.Pi_ovs.Provenance.t_rules })
          s.Pi_ovs.Provenance.rows,
        s.Pi_ovs.Provenance.ports ))
    r.Scenario.attribution

let test_covert_bursts p () =
  let run bs = Scenario.run { p with Scenario.batch_size = bs } in
  let a = run 1 and b = run 32 in
  Alcotest.(check int) "same sample count"
    (List.length a.Scenario.samples) (List.length b.Scenario.samples);
  List.iter2
    (fun (x : Scenario.sample) (y : Scenario.sample) ->
      if x <> y then Alcotest.failf "samples differ at t=%.1f" x.Scenario.time)
    a.Scenario.samples b.Scenario.samples;
  Alcotest.(check bool) "same final stats" true
    (a.Scenario.final_stats = b.Scenario.final_stats);
  Alcotest.(check bool) "same attribution" true
    (attribution_sans_rule_ids a = attribution_sans_rule_ids b)

(* A sample is the tick's record of the cache state: read at the end of
   the tick, it agrees with the dataplane [on_sample] is handed. *)
let test_sample_is_tick_state n_shards () =
  let ticks = ref 0 in
  let on_sample dp (s : Scenario.sample) =
    incr ticks;
    let st = Pi_ovs.Dataplane.stats dp in
    let at what = Printf.sprintf "%s at t=%.0f" what s.Scenario.time in
    Alcotest.(check int) (at "emc_occupancy")
      st.Pi_ovs.Dataplane.emc_occupancy s.Scenario.emc_occupancy;
    Alcotest.(check int) (at "n_masks") st.Pi_ovs.Dataplane.masks
      s.Scenario.n_masks;
    Alcotest.(check int) (at "n_megaflows") st.Pi_ovs.Dataplane.megaflows
      s.Scenario.n_megaflows;
    Alcotest.(check (array int)) (at "shard_masks")
      (Pi_ovs.Dataplane.shard_masks dp) s.Scenario.shard_masks
  in
  let r =
    Scenario.run
      { (small_params ~attack:(small_attack Variant.Src_only) ()) with
        Scenario.duration = 15.;
        n_shards;
        on_sample = Some on_sample }
  in
  Alcotest.(check int) "every tick seen" (List.length r.Scenario.samples) !ticks;
  Alcotest.(check bool) "the EMC fills" true
    (List.exists (fun s -> s.Scenario.emc_occupancy > 0) r.Scenario.samples)

let suite =
  [ Alcotest.test_case "no-attack baseline" `Slow test_no_attack_baseline;
    Alcotest.test_case "src+dport raises victim cost" `Slow test_src_dport_attack;
    Alcotest.test_case "full attack collapses victim" `Slow test_full_attack_collapses;
    Alcotest.test_case "masks decay after attack stops" `Slow test_attack_stop_recovers_masks;
    Alcotest.test_case "coarsening mitigation holds" `Slow test_mitigated_scenario;
    Alcotest.test_case "attribution names the attacker" `Slow
      test_attribution_names_the_attacker;
    Alcotest.test_case "provenance on/off parity" `Slow test_provenance_parity;
    Alcotest.test_case "deterministic given the seed" `Slow test_deterministic;
    Alcotest.test_case "deferred covert entries match" `Slow
      test_deferred_covert_entries ]
  @ List.map
      (fun (name, p) ->
        Alcotest.test_case ("covert bursts: " ^ name) `Slow
          (test_covert_bursts p))
      covert_burst_params
  @ [ Alcotest.test_case "sample is the tick's state, 1 shard" `Slow
        (test_sample_is_tick_state 1);
      Alcotest.test_case "sample is the tick's state, 2 shards" `Slow
        (test_sample_is_tick_state 2) ]
