(* Observability layer (0.11.0): histogram snapshots and windows, the
   per-tick JSONL sample lines, and the per-stage cycle profile — including its conformance guarantees: profile totals
   decompose the dataplane's charge exactly, and parallel and sequential
   shard execution merge to identical per-stage totals. *)

open Pi_telemetry
open Helpers

(* --- Histogram snapshots -------------------------------------------- *)

(* lo=1 growth=2 n_buckets=4 -> finite edges 1,2,4,8,16. *)
let small_hist () = Histogram.create ~lo:1.0 ~growth:2.0 ~n_buckets:4 ~name:"h" ()

let test_snapshot_empty () =
  let h = small_hist () in
  let s = Histogram.snapshot h in
  Alcotest.(check int) "empty count" 0 (Histogram.snapshot_count s);
  Alcotest.(check (float 0.)) "empty sum" 0. (Histogram.snapshot_sum s);
  Alcotest.(check bool) "empty mean nan" true
    (Float.is_nan (Histogram.snapshot_mean s));
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (Histogram.snapshot_percentile h s 50.))

let test_snapshot_diff_window () =
  let h = small_hist () in
  Histogram.observe h 1.5;
  Histogram.observe h 3.0;
  let before = Histogram.snapshot h in
  (* The window: one underflow, one finite, one overflow observation. *)
  Histogram.observe h 0.25;
  Histogram.observe h 5.0;
  Histogram.observe h 100.0;
  let after = Histogram.snapshot h in
  let win = Histogram.snapshot_create h in
  Histogram.snapshot_diff ~into:win after before;
  Alcotest.(check int) "window count" 3 (Histogram.snapshot_count win);
  Alcotest.(check (float 1e-9)) "window sum" 105.25
    (Histogram.snapshot_sum win);
  Alcotest.(check int) "underflow bucket delta" 1 win.Histogram.sn_counts.(0);
  Alcotest.(check int) "overflow bucket delta" 1
    win.Histogram.sn_counts.(Histogram.n_buckets h + 1);
  (* Catch-all edge semantics: underflow reports lo, overflow the last
     finite bound. *)
  Alcotest.(check (float 1e-9)) "p0 -> underflow reports lo" 1.0
    (Histogram.snapshot_percentile h win 0.);
  Alcotest.(check (float 1e-9)) "p100 -> overflow reports last bound" 16.0
    (Histogram.snapshot_percentile h win 100.)

let test_snapshot_diff_negative_raises () =
  let h = small_hist () in
  Histogram.observe h 2.0;
  let s1 = Histogram.snapshot h in
  Histogram.observe h 3.0;
  let s2 = Histogram.snapshot h in
  let into = Histogram.snapshot_create h in
  (* [s1 - s2] would drive a bucket negative. *)
  match Histogram.snapshot_diff ~into s1 s2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "reversed diff accepted"

let test_snapshot_merge_cross_shard () =
  (* Two shards observing disjoint streams; merged snapshot must equal
     the snapshot of one histogram that saw both streams. *)
  let h1 = small_hist () and h2 = small_hist () and all = small_hist () in
  List.iter (fun v -> Histogram.observe h1 v; Histogram.observe all v)
    [ 1.0; 3.0; 3.5 ];
  List.iter (fun v -> Histogram.observe h2 v; Histogram.observe all v)
    [ 0.5; 9.0; 20.0 ];
  let acc = Histogram.snapshot_create h1 in
  Histogram.snapshot_merge ~into:acc (Histogram.snapshot h1);
  Histogram.snapshot_merge ~into:acc (Histogram.snapshot h2);
  let expect = Histogram.snapshot all in
  Alcotest.(check int) "merged count" (Histogram.snapshot_count expect)
    (Histogram.snapshot_count acc);
  Alcotest.(check (float 1e-9)) "merged sum" (Histogram.snapshot_sum expect)
    (Histogram.snapshot_sum acc);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "bucket %d" i)
        expect.Histogram.sn_counts.(i) c)
    acc.Histogram.sn_counts;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.)) (Printf.sprintf "merged p%g" p)
        (Histogram.snapshot_percentile all expect p)
        (Histogram.snapshot_percentile h1 acc p))
    [ 0.; 50.; 99.; 100. ]

(* Brute-force reference: nearest-rank over each observation's bucket
   upper edge (lo for underflow, last finite bound for overflow) —
   exactly the resolution the snapshot percentile promises. *)
let brute_percentile h values p =
  let edge v =
    let i = Histogram.bucket_index h v in
    if i = 0 then 1.0 (* lo *)
    else if i = Histogram.n_buckets h + 1 then 16.0 (* last finite bound *)
    else snd (Histogram.bucket_bounds h i)
  in
  let edges = List.sort compare (List.map edge values) in
  let n = List.length edges in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  List.nth edges (rank - 1)

let test_windowed_p99_vs_brute_force () =
  let h = small_hist () in
  let w = Window.create h in
  (* Warm the histogram with pre-window noise the window must ignore. *)
  List.iter (Histogram.observe h) [ 0.1; 2.0; 2.0; 50.0 ];
  Window.tick w;
  let values =
    [ 0.5; 1.0; 1.5; 2.5; 3.0; 3.5; 4.5; 6.0; 7.9; 9.0; 14.0; 30.0 ]
  in
  List.iter (Histogram.observe h) values;
  Window.tick w;
  Alcotest.(check int) "window count" (List.length values) (Window.count w);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "windowed p%g" p)
        (brute_percentile h values p)
        (Window.percentile w p))
    [ 0.; 10.; 50.; 90.; 99.; 100. ]

let test_percentile_domain_checks () =
  let h = small_hist () in
  Histogram.observe h 2.0;
  let s = Histogram.snapshot h in
  List.iter
    (fun p ->
      (match Histogram.percentile h p with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail (Printf.sprintf "percentile %f accepted" p));
      match Histogram.snapshot_percentile h s p with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "snapshot percentile %f accepted" p))
    [ -0.001; 100.001; nan ]

(* --- Window + Ewma --------------------------------------------------- *)

let test_window_ticks () =
  let h = small_hist () in
  let w = Window.create h in
  Alcotest.(check int) "no ticks yet" 0 (Window.ticks w);
  Alcotest.(check int) "empty before first tick" 0 (Window.count w);
  List.iter (Histogram.observe h) [ 2.0; 2.0; 6.0 ];
  Window.tick w;
  Alcotest.(check int) "first window" 3 (Window.count w);
  Alcotest.(check (float 1e-9)) "first window sum" 10.0 (Window.sum w);
  List.iter (Histogram.observe h) [ 12.0 ];
  Window.tick w;
  Alcotest.(check int) "second window forgot the first" 1 (Window.count w);
  Alcotest.(check (float 1e-9)) "second window p50 is its own" 16.0
    (Window.p50 w);
  Window.tick w;
  Alcotest.(check int) "idle window empty" 0 (Window.count w);
  Alcotest.(check int) "three ticks" 3 (Window.ticks w)

let test_ewma_rates () =
  let e = Window.Ewma.create ~alpha:0.3 () in
  Alcotest.(check bool) "rate nan before anchor" true
    (Float.is_nan (Window.Ewma.rate e));
  Window.Ewma.tick e ~now:0. 0.;
  Alcotest.(check bool) "anchor closes no window" true
    (Float.is_nan (Window.Ewma.rate e));
  Window.Ewma.tick e ~now:1. 10.;
  Alcotest.(check (float 1e-9)) "first window rate" 10. (Window.Ewma.rate e);
  Window.Ewma.tick e ~now:1. 10.;
  Alcotest.(check int) "equal timestamp ignored" 1 (Window.Ewma.windows e);
  Window.Ewma.tick e ~now:2. 30.;
  Alcotest.(check (float 1e-9)) "instantaneous" 20. (Window.Ewma.last_rate e);
  Alcotest.(check (float 1e-9)) "smoothed" 13. (Window.Ewma.rate e);
  match Window.Ewma.create ~alpha:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "alpha > 1 accepted"

(* --- Per-tick sample lines ------------------------------------------ *)

let test_sample_lines () =
  Alcotest.(check string) "one sorted-key JSONL record per tick"
    ({|{"samples":{"bad":null,"masks":1.5},"t":0}|} ^ "\n"
     ^ {|{"samples":{"bad":null,"masks":2},"t":1}|} ^ "\n")
    (Export.timeseries_jsonl
       [ ("masks", [ (0., 1.5); (1., 2.) ]); ("bad", [ (0., nan); (1., nan) ]) ]);
  Alcotest.(check string) "no columns, no lines" ""
    (Export.timeseries_jsonl [])

(* --- Perf: unit behaviour --------------------------------------------- *)

let test_perf_merge_equals_union () =
  let view c =
    Perf.v ~emc_lookup:10. ~mf_probe:7. ~mf_hit_fixed:3. ~upcall:500.
      ~slow_probe:11. ~per_byte:0.25 ~batch:40. (fun () -> c)
  in
  let zero =
    { Perf.packets = 0; bytes = 0; emc_hits = 0; mf_hits = 0; mf_probes = 0;
      upcalls = 0; slow_probes = 0; handler_upcalls = 0;
      handler_slow_probes = 0; handler_bytes = 0; batches = 0;
      reval_sweeps = 0; reval_evicted = 0 }
  in
  let a =
    { zero with Perf.packets = 2; bytes = 164; emc_hits = 1; mf_hits = 1;
      mf_probes = 3 }
  and b =
    { zero with Perf.packets = 1; bytes = 1500; mf_probes = 5; upcalls = 2;
      slow_probes = 9; handler_upcalls = 1; handler_slow_probes = 7;
      handler_bytes = 64; batches = 1; reval_sweeps = 1; reval_evicted = 4 }
  in
  let u =
    { Perf.packets = 3; bytes = 1664; emc_hits = 1; mf_hits = 1;
      mf_probes = 8; upcalls = 2; slow_probes = 9; handler_upcalls = 1;
      handler_slow_probes = 7; handler_bytes = 64; batches = 1;
      reval_sweeps = 1; reval_evicted = 4 }
  in
  let merged = Perf.merge (view a) (view b) in
  Alcotest.(check bool) "counts add" true (Perf.counts merged = u);
  for st = 0 to Perf.n_stages - 1 do
    Alcotest.(check (float 0.)) (Perf.stage_name st)
      (Perf.stage_cycles (view u) st) (Perf.stage_cycles merged st)
  done;
  Alcotest.(check (float 0.)) "total" (Perf.total_cycles (view u))
    (Perf.total_cycles merged)

let test_perf_stage_names () =
  Alcotest.(check string) "steer" "steering" (Perf.stage_name Perf.stage_steer);
  Alcotest.(check string) "batch" "batch" (Perf.stage_name Perf.stage_batch);
  match Perf.stage_name Perf.n_stages with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range stage accepted"

(* --- Perf: the exact-decomposition invariant --------------------------- *)

open Pi_ovs
open Pi_classifier

let rules =
  [ Rule.make ~priority:100
      ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
      ~action:(Action.Output 2) ();
    Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ]

let trusted = Flow.make ~ip_src:(ip "10.0.0.10") ()

let covert k =
  let src = Int32.logxor (Pi_pkt.Ipv4_addr.of_string "10.0.0.10")
      (Int32.shift_left 1l (31 - k)) in
  Flow.make ~ip_src:src ()

(* Mixed traffic: upcalls, EMC hits, megaflow hits, varying lengths. *)
let traffic =
  Array.init 64 (fun i ->
      let f = if i mod 3 = 0 then trusted else covert (i mod 24) in
      (f, 64 + (i mod 4) * 400))

let merged_perf dp =
  match
    List.filter_map (Dataplane.shard_perf dp)
      (List.init (Dataplane.n_shards dp) Fun.id)
  with
  | [] -> None
  | p :: ps -> Some (List.fold_left Perf.merge p ps)

let stage_totals p = Array.init Perf.n_stages (Perf.stage_cycles p)

(* The profile sums per stage and the dataplane keeps one running
   total, so the two sums associate differently — equal to
   float rounding, not to the bit. *)
let check_close msg expect got =
  let tol = 1e-9 *. Float.max 1. (Float.abs expect) in
  if Float.abs (expect -. got) > tol then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expect got

let test_perf_decomposes_datapath_charge () =
  (* Stage sum == fast-path cycles + deferred-handler cycles, to the
     bit, including a bounded queue with deferred servicing. *)
  let backend =
    Dataplane.pmd
      ~config:{ Pmd.default_config with
                Pmd.dp =
                  { Datapath.default_config with
                    Datapath.upcall_queue = Upcall_queue.bounded 16;
                    emc_insert_inv_prob = 1 } }
      ()
  in
  let dp = Dataplane.create backend (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  ignore (Dataplane.process_burst dp ~now:0. traffic);
  ignore (Dataplane.service_upcalls dp ~now:0.5);
  ignore (Dataplane.process_burst dp ~now:1. traffic);
  ignore (Dataplane.revalidate dp ~now:2.);
  let p = Option.get (merged_perf dp) in
  let c = Perf.counts p in
  let st = Dataplane.stats dp in
  check_close "stage sum = charged cycles"
    (st.Dataplane.cycles +. st.Dataplane.handler_cycles)
    (Perf.total_cycles p);
  Alcotest.(check bool) "handler verdicts charged" true
    (c.Perf.handler_upcalls > 0 && c.Perf.handler_bytes > 0);
  Alcotest.(check int) "reval sweep counted" 1 c.Perf.reval_sweeps

let test_perf_parallel_equals_sequential () =
  (* The conformance demand: a Domain-parallel Pmd run merges to the
     same per-stage totals as the sequential one, bit for bit. *)
  let run parallel =
    let config =
      { Pmd.default_config with
        Pmd.n_shards = 4; batch_size = 8; batch_cycles = 25.; parallel }
    in
    let pmd = Pmd.create ~config (Pi_pkt.Prng.create 7L) () in
    Pmd.install_rules pmd rules;
    ignore (Pmd.process_burst pmd ~now:0. traffic);
    ignore (Pmd.process_burst pmd ~now:1. traffic);
    ignore (Pmd.revalidate pmd ~now:2.);
    let views =
      List.init (Pmd.n_shards pmd) (fun s -> Option.get (Pmd.shard_perf pmd s))
    in
    let acc = List.fold_left Perf.merge (List.hd views) (List.tl views) in
    (stage_totals acc,
     Pmd.cycles_used pmd +. Pmd.handler_cycles_used pmd,
     Perf.total_cycles acc)
  in
  let seq, seq_charged, seq_total = run false in
  let par, par_charged, par_total = run true in
  Array.iteri
    (fun st c ->
      Alcotest.(check (float 0.)) (Perf.stage_name st) c par.(st))
    seq;
  check_close "stage sum = pmd charge (incl. batch)" seq_charged seq_total;
  Alcotest.(check (float 0.)) "parallel charge identical" seq_charged
    par_charged;
  Alcotest.(check (float 0.)) "parallel total identical" seq_total par_total

let test_perf_across_backends () =
  (* Every Dataplane backend honours shard_perf: the cached ones
     decompose their charge exactly; the cache-less baseline has no
     stages and reports None without raising. *)
  let check_backend label backend cached =
    let dp = Dataplane.create backend (Pi_pkt.Prng.create 7L) in
    Dataplane.install_rules dp rules;
    ignore (Dataplane.process_burst dp ~now:0. traffic);
    let st = Dataplane.stats dp in
    if cached then begin
      Alcotest.(check bool) (label ^ ": profile present") true
        (Dataplane.shard_perf dp 0 <> None);
      check_close (label ^ ": exact decomposition")
        (st.Dataplane.cycles +. st.Dataplane.handler_cycles)
        (Perf.total_cycles (Option.get (merged_perf dp)))
    end
    else
      Alcotest.(check bool) (label ^ ": no profile to report") true
        (Dataplane.shard_perf dp 0 = None);
    match Dataplane.shard_perf dp (Dataplane.n_shards dp) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (label ^ ": out-of-range shard_perf must raise")
  in
  check_backend "pmd1" (Dataplane.pmd ()) true;
  check_backend "pmd"
    (Dataplane.pmd
       ~config:{ Pmd.default_config with Pmd.n_shards = 2; batch_cycles = 10. }
       ())
    true;
  check_backend "cacheless" (Pi_mitigation.Cacheless.dataplane ()) false

(* --- Scenario profile + monitor ---------------------------------------- *)

let scenario_params () =
  let open Pi_sim in
  { Scenario.default_params with
    Scenario.duration = 8.;
    attack =
      Some { Scenario.default_attack with Scenario.start = 3. };
    n_shards = 2;
    metrics = Some (Metrics.create ());
    provenance = true }

let test_scenario_report_perf () =
  let open Pi_sim in
  let r = Scenario.run (scenario_params ()) in
  match r.Scenario.perf with
  | None -> Alcotest.fail "a pmd run must report merged perf"
  | Some p ->
    Alcotest.(check bool) "packets profiled" true
      ((Perf.counts p).Perf.packets > 0);
    Alcotest.(check bool) "megaflow stage charged under attack" true
      (Perf.stage_cycles p Perf.stage_mf > 0.);
    Alcotest.(check bool) "slow path charged under attack" true
      (Perf.stage_cycles p Perf.stage_upcall > 0.)

let test_monitor_tracks_attack () =
  let open Pi_sim in
  let mon = ref None in
  let frames = ref [] and jsons = ref [] in
  let on_sample dp s =
    let m =
      match !mon with
      | Some m -> m
      | None ->
        let m = Monitor.create dp in
        mon := Some m;
        m
    in
    Monitor.observe m dp s;
    frames := Monitor.frame m dp s :: !frames;
    jsons := Monitor.json m dp s :: !jsons
  in
  let p = { (scenario_params ()) with Pi_sim.Scenario.on_sample = Some on_sample } in
  ignore (Scenario.run p);
  let last_frame = List.hd !frames and last_json = List.hd !jsons in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "frame mentions %S" needle) true
        (Astring_like.contains last_frame needle))
    [ "masks"; "upcalls"; "win-p99"; "stage-share"; "suspect  tenant 3" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json carries %S" needle) true
        (Astring_like.contains last_json needle))
    [ {|"cycles":{"tick_avg":|}; {|"stages":{"batch":|};
      {|"suspect":{"masks":|}; {|"tenant":3|}; {|"victim_gbps":|} ];
  Alcotest.(check bool) "json newline-terminated" true
    (last_json.[String.length last_json - 1] = '\n');
  (* Byte-stability: the same seeded run renders the same bytes. *)
  let jsons2 = ref [] in
  let mon2 = ref None in
  let p2 =
    { (scenario_params ()) with
      Pi_sim.Scenario.on_sample =
        Some
          (fun dp s ->
            let m =
              match !mon2 with
              | Some m -> m
              | None ->
                let m = Monitor.create dp in
                mon2 := Some m;
                m
            in
            Monitor.observe m dp s;
            jsons2 := Monitor.json m dp s :: !jsons2) }
  in
  ignore (Scenario.run p2);
  Alcotest.(check (list string)) "json snapshots byte-stable" !jsons !jsons2;
  (* The attack's onset is visible in the windowed percentile: the
     monitor's merged win-p99 after the attack dwarfs the pre-attack
     one. *)
  match !mon with
  | None -> Alcotest.fail "monitor never created"
  | Some m -> Alcotest.(check bool) "ticks observed" true (Monitor.ticks m > 0)

let test_pmd_perf_show_reports_stages () =
  (* dpctl pmd-perf-show renders the per-stage breakdown of every pmd
     shard. *)
  let ctx = Ctx.v ~metrics:(Metrics.create ()) () in
  let dp =
    Dataplane.create ~telemetry:ctx
      (Dataplane.pmd
         ~config:{ Pmd.default_config with Pmd.n_shards = 2; batch_cycles = 30. }
         ())
      (Pi_pkt.Prng.create 7L)
  in
  Dataplane.install_rules dp rules;
  ignore (Dataplane.process_burst dp ~now:0. traffic);
  let text = Format.asprintf "%a" Dpctl.pmd_perf dp in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %S" needle) true
        (Astring_like.contains text needle))
    [ "per-stage cycles:"; "steering:"; "emc:"; "megaflow:"; "upcall:";
      "batch:"; "avg cycles/pkt:"; "avg subtables/walk:"; "rx batches:" ]

let suite =
  [ Alcotest.test_case "snapshot: empty" `Quick test_snapshot_empty;
    Alcotest.test_case "snapshot: diff brackets a window" `Quick
      test_snapshot_diff_window;
    Alcotest.test_case "snapshot: reversed diff raises" `Quick
      test_snapshot_diff_negative_raises;
    Alcotest.test_case "snapshot: cross-shard merge" `Quick
      test_snapshot_merge_cross_shard;
    Alcotest.test_case "windowed percentiles vs brute force" `Quick
      test_windowed_p99_vs_brute_force;
    Alcotest.test_case "percentile domain checks" `Quick
      test_percentile_domain_checks;
    Alcotest.test_case "window: tick semantics" `Quick test_window_ticks;
    Alcotest.test_case "ewma rates" `Quick test_ewma_rates;
    Alcotest.test_case "sample lines: one per tick" `Quick
      test_sample_lines;
    Alcotest.test_case "perf: merge equals union" `Quick
      test_perf_merge_equals_union;
    Alcotest.test_case "perf: stage names" `Quick test_perf_stage_names;
    Alcotest.test_case "perf: decomposes the datapath charge" `Quick
      test_perf_decomposes_datapath_charge;
    Alcotest.test_case "perf: parallel = sequential (merged)" `Quick
      test_perf_parallel_equals_sequential;
    Alcotest.test_case "perf: all backends conform" `Quick
      test_perf_across_backends;
    Alcotest.test_case "scenario: profiled report" `Quick
      test_scenario_report_perf;
    Alcotest.test_case "monitor: tracks the attack" `Quick
      test_monitor_tracks_attack;
    Alcotest.test_case "dpctl pmd-perf-show stages" `Quick
      test_pmd_perf_show_reports_stages ]
