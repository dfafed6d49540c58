open Pi_telemetry
open Helpers

(* --- Histogram --- *)

(* lo=1 growth=2 n_buckets=4 -> finite bucket edges 1,2,4,8,16. *)
let small_hist () = Histogram.create ~lo:1.0 ~growth:2.0 ~n_buckets:4 ~name:"h" ()

let test_hist_bucket_boundaries () =
  let h = small_hist () in
  Alcotest.(check int) "underflow" 0 (Histogram.bucket_index h 0.5);
  Alcotest.(check int) "lo lands in bucket 1" 1 (Histogram.bucket_index h 1.0);
  Alcotest.(check int) "just below edge" 1 (Histogram.bucket_index h 1.999);
  Alcotest.(check int) "edge opens next bucket" 2 (Histogram.bucket_index h 2.0);
  Alcotest.(check int) "last finite bucket" 4 (Histogram.bucket_index h 15.999);
  Alcotest.(check int) "top edge overflows" 5 (Histogram.bucket_index h 16.0);
  Alcotest.(check int) "far overflow" 5 (Histogram.bucket_index h 1e9);
  let lo, hi = Histogram.bucket_bounds h 3 in
  Alcotest.(check (float 1e-9)) "bucket 3 lo" 4.0 lo;
  Alcotest.(check (float 1e-9)) "bucket 3 hi" 8.0 hi;
  let lo, _ = Histogram.bucket_bounds h 0 in
  Alcotest.(check bool) "underflow open below" true (lo = neg_infinity);
  let _, hi = Histogram.bucket_bounds h 5 in
  Alcotest.(check bool) "overflow open above" true (hi = infinity)

let test_hist_exact_stats () =
  let h = small_hist () in
  for v = 1 to 10 do Histogram.observe h (float_of_int v) done;
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 55.0 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 5.5 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 10.0 (Histogram.max_value h)

let test_hist_percentiles () =
  let h = small_hist () in
  for v = 1 to 10 do Histogram.observe h (float_of_int v) done;
  (* Rank 5 of 10 falls in bucket [4,8): reported as its upper edge. *)
  Alcotest.(check (float 1e-9)) "p50 = bucket upper edge" 8.0
    (Histogram.percentile h 50.);
  (* Rank 10 falls in [8,16) but the edge is clamped to the observed max. *)
  Alcotest.(check (float 1e-9)) "p99 clamped to max" 10.0
    (Histogram.percentile h 99.);
  (* Rank 1 falls in [1,2): bucket resolution, so its upper edge. *)
  Alcotest.(check (float 1e-9)) "p0 = first occupied bucket edge" 2.0
    (Histogram.percentile h 0.)

let test_hist_single_value_exact () =
  let h = small_hist () in
  Histogram.observe h 5.0;
  let s = Histogram.summary h in
  Alcotest.(check (float 1e-9)) "p50 exact for single value" 5.0 s.Histogram.s_p50;
  Alcotest.(check (float 1e-9)) "p99 exact for single value" 5.0 s.Histogram.s_p99;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Histogram.s_mean

let test_hist_empty_and_reset () =
  let h = small_hist () in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool) "empty p50 nan" true
    (Float.is_nan (Histogram.percentile h 50.));
  Histogram.observe h 3.0;
  Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Histogram.count h);
  Alcotest.(check bool) "reset mean nan" true (Float.is_nan (Histogram.mean h))

let test_hist_invalid () =
  (match Histogram.create ~lo:0.0 ~name:"x" () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "lo <= 0 accepted");
  match Histogram.create ~growth:1.0 ~name:"x" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "growth <= 1 accepted"

(* --- Tracer --- *)

let test_tracer_wraparound () =
  let tr = Tracer.create ~capacity:4 () in
  for i = 0 to 5 do
    Tracer.record tr ~at:(float_of_int i) Tracer.Emc_hit
  done;
  Alcotest.(check int) "length capped" 4 (Tracer.length tr);
  Alcotest.(check int) "dropped" 2 (Tracer.dropped tr);
  Alcotest.(check int) "total" 6 (Tracer.total tr);
  Alcotest.(check (list (float 1e-9))) "oldest-first tail" [ 2.; 3.; 4.; 5. ]
    (List.map (fun e -> e.Tracer.at) (Tracer.to_list tr))

let test_tracer_counts_by_kind () =
  let tr = Tracer.create ~capacity:16 () in
  Tracer.record tr ~at:0. Tracer.Emc_hit;
  Tracer.record tr ~at:1. (Tracer.Upcall { slow_probes = 2 });
  Tracer.record tr ~at:2. Tracer.Emc_hit;
  Tracer.record tr ~at:3. (Tracer.Mask_created { n_masks = 1 });
  Alcotest.(check (list (pair string int))) "sorted tallies"
    [ ("emc_hit", 2); ("mask_created", 1); ("upcall", 1) ]
    (Tracer.counts_by_kind tr)

(* --- Per-tick sample lines --- *)

let test_sample_lines_escape_names () =
  Alcotest.(check string) "control byte as a JSON escape"
    ({|{"samples":{"a\u0001b":1},"t":0}|} ^ "\n")
    (Export.timeseries_jsonl [ ("a\001b", [ (0., 1.) ]) ])

(* --- Metrics registry --- *)

(* Histograms are the registry's own store, so components sharing a
   registry converge on one instrument per name. *)
let test_metrics_get_or_create () =
  let m = Metrics.create () in
  let h1 = Metrics.histogram m "cycles" in
  let h2 = Metrics.histogram m "cycles" in
  Histogram.observe h1 1.;
  Histogram.observe h2 2.;
  Alcotest.(check bool) "shared instrument" true (h1 == h2);
  Alcotest.(check (list (pair string int))) "enumeration" [ ("cycles", 2) ]
    (List.map (fun (n, h) -> (n, Histogram.count h)) (Metrics.histograms m))

(* Counters and gauges store nothing: each enumeration and lookup reads
   the count its owner keeps, and a name has one reader. *)
let test_metrics_readers () =
  let m = Metrics.create () in
  let hits = ref 0 and load = ref 0. in
  Metrics.counter m "hits" (fun () -> !hits);
  Metrics.gauge m "load" (fun () -> !load);
  hits := 3;
  load := 0.5;
  Alcotest.(check (list (pair string int))) "enumeration reads" [ ("hits", 3) ]
    (Metrics.counters m);
  Alcotest.(check (option (float 0.))) "gauge reads" (Some 0.5)
    (Metrics.find_gauge m "load");
  hits := 0;
  Alcotest.(check (option int)) "a reset owner resets the view" (Some 0)
    (Metrics.find_counter m "hits");
  Alcotest.check_raises "one reader per name"
    (Invalid_argument "Metrics.counter: duplicate \"hits\"") (fun () ->
      Metrics.counter m "hits" (fun () -> 1))

let test_metrics_type_mismatch () =
  let m = Metrics.create () in
  Metrics.counter m "x" (fun () -> 0);
  (match Metrics.gauge m "x" (fun () -> 0.) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "counter reused as gauge");
  match Metrics.histogram m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter reused as histogram"

(* --- JSON snapshot stability --- *)

let fill order m =
  let value = function "b" -> 7 | _ -> 1 in
  List.iter (fun name -> Metrics.counter m name (fun () -> value name)) order;
  Metrics.gauge m "g" (fun () -> 2.5);
  Histogram.observe (Metrics.histogram m "h") 3.0

let test_json_stable_across_insertion_order () =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  fill [ "a"; "b" ] m1;
  fill [ "b"; "a" ] m2;
  Alcotest.(check string) "byte-identical snapshots"
    (Export.json_snapshot m1) (Export.json_snapshot m2)

let test_json_shape () =
  let m = Metrics.create () in
  fill [ "a"; "b" ] m;
  let tr = Tracer.create ~capacity:8 () in
  Tracer.record tr ~at:0. Tracer.Emc_hit;
  let j =
    Export.json_snapshot ~timeseries:[ ("n_masks", [ (0., 4.) ]) ] ~tracer:tr m
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "snapshot contains %S" needle) true
        (Astring_like.contains j needle))
    [ {|"counters":{"a":1,"b":7}|};
      {|"gauges":{"g":2.5}|};
      {|"p50":3|};
      {|"timeseries":{"n_masks":[[0,4]]}|};
      {|"trace":|};
      {|"emc_hit":1|} ];
  Alcotest.(check bool) "newline-terminated" true
    (String.length j > 0 && j.[String.length j - 1] = '\n')

(* --- Datapath integration --- *)

let mk_dp ?metrics ?tracer () =
  let open Pi_ovs in
  let config = { Datapath.default_config with Datapath.emc_insert_inv_prob = 1 } in
  let telemetry = Pi_telemetry.Ctx.v ?metrics ?tracer () in
  let dp = Datapath.create ~config ~telemetry (Pi_pkt.Prng.create 3L) () in
  Datapath.install_rules dp
    [ Pi_classifier.Rule.make ~priority:100
        ~pattern:
          (Pi_classifier.Pattern.with_ip_src Pi_classifier.Pattern.any
             (pfx "10.0.0.10/32"))
        ~action:(Action.Output 2) ();
      Pi_classifier.Rule.make ~priority:1 ~pattern:Pi_classifier.Pattern.any
        ~action:Action.Drop () ];
  dp

let drive dp =
  let open Pi_ovs in
  (* upcall, then emc hit, then a second flow: upcall + megaflow traffic *)
  let f1 = Pi_classifier.Flow.make ~ip_src:(ip "10.0.0.10") () in
  let f2 = Pi_classifier.Flow.make ~ip_src:(ip "99.0.0.1") () in
  ignore (Datapath.process dp ~now:0.0 f1 ~pkt_len:100);
  ignore (Datapath.process dp ~now:0.1 f1 ~pkt_len:100);
  ignore (Datapath.process dp ~now:0.2 f2 ~pkt_len:100);
  ignore (Datapath.process dp ~now:0.3 f2 ~pkt_len:100)

let test_datapath_counters_match () =
  let open Pi_ovs in
  let metrics = Metrics.create () in
  let dp = mk_dp ~metrics () in
  drive dp;
  let c name = Option.value ~default:(-1) (Metrics.find_counter metrics name) in
  Alcotest.(check int) "packets" 4 (c "packets");
  Alcotest.(check int) "upcall counter = n_upcalls" (Datapath.n_upcalls dp)
    (c "upcall");
  Alcotest.(check int) "mask_created = n_masks" (Datapath.n_masks dp)
    (c "mask_created");
  Alcotest.(check int) "per-stage counters partition the packets" 4
    (c "emc_hit" + c "mf_hit" + c "upcall");
  (match Metrics.find_histogram metrics "cycles_per_packet" with
   | None -> Alcotest.fail "cycles histogram missing"
   | Some h ->
     Alcotest.(check int) "one cycles sample per packet" 4 (Histogram.count h);
     Alcotest.(check (float 1e-6)) "histogram sum = cycles_used"
       (Datapath.cycles_used dp) (Histogram.sum h))

let test_datapath_trace_events () =
  let open Pi_ovs in
  let metrics = Metrics.create () in
  let tracer = Tracer.create ~capacity:64 () in
  let dp = mk_dp ~metrics ~tracer () in
  drive dp;
  (* Policy change; revalidation evicts the now-stale megaflows. *)
  Datapath.install_rules dp
    [ Pi_classifier.Rule.make ~priority:50
        ~pattern:(Pi_classifier.Pattern.with_tp_dst Pi_classifier.Pattern.any 80)
        ~action:Action.Drop () ];
  let evicted = Datapath.revalidate dp ~now:1. in
  Alcotest.(check bool) "something evicted" true (evicted > 0);
  Alcotest.(check (option int)) "megaflow_evicted counter" (Some evicted)
    (Metrics.find_counter metrics "megaflow_evicted");
  let tally = Tracer.counts_by_kind tracer in
  let count k = Option.value ~default:0 (List.assoc_opt k tally) in
  Alcotest.(check int) "upcall events" (Datapath.n_upcalls dp) (count "upcall");
  Alcotest.(check bool) "emc_hit traced" true (count "emc_hit" > 0);
  Alcotest.(check bool) "mask_created traced" true (count "mask_created" > 0);
  Alcotest.(check int) "revalidate traced" 1 (count "revalidate");
  Alcotest.(check int) "eviction traced" 1 (count "megaflow_evicted")

let test_disabled_telemetry_no_behavior_change () =
  let open Pi_ovs in
  let run ?metrics ?tracer () =
    let dp = mk_dp ?metrics ?tracer () in
    let rng = Pi_pkt.Prng.create 42L in
    let actions = ref [] in
    for i = 0 to 199 do
      let f = Pi_classifier.Flow.make ~ip_src:(Pi_pkt.Prng.int32 rng)
          ~tp_dst:(i land 0x3F) () in
      let a, _ = Datapath.process dp ~now:(0.01 *. float_of_int i) f ~pkt_len:64 in
      actions := a :: !actions
    done;
    ignore (Datapath.revalidate dp ~now:10.);
    (!actions, Datapath.cycles_used dp, Datapath.n_masks dp,
     Datapath.n_megaflows dp, Datapath.n_upcalls dp)
  in
  let bare = run () in
  let instrumented =
    run ~metrics:(Metrics.create ()) ~tracer:(Tracer.create ()) ()
  in
  let (a1, cy1, m1, g1, u1) = bare and (a2, cy2, m2, g2, u2) = instrumented in
  Alcotest.(check (list action_t)) "same verdicts" a1 a2;
  Alcotest.(check (float 0.0)) "same cycles" cy1 cy2;
  Alcotest.(check int) "same masks" m1 m2;
  Alcotest.(check int) "same megaflows" g1 g2;
  Alcotest.(check int) "same upcalls" u1 u2

let suite =
  [ Alcotest.test_case "histogram bucket boundaries" `Quick test_hist_bucket_boundaries;
    Alcotest.test_case "histogram exact stats" `Quick test_hist_exact_stats;
    Alcotest.test_case "histogram percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "histogram single value exact" `Quick test_hist_single_value_exact;
    Alcotest.test_case "histogram empty + reset" `Quick test_hist_empty_and_reset;
    Alcotest.test_case "histogram invalid args" `Quick test_hist_invalid;
    Alcotest.test_case "tracer wraparound" `Quick test_tracer_wraparound;
    Alcotest.test_case "tracer counts by kind" `Quick test_tracer_counts_by_kind;
    Alcotest.test_case "sample lines escape names" `Quick
      test_sample_lines_escape_names;
    Alcotest.test_case "metrics get-or-create" `Quick test_metrics_get_or_create;
    Alcotest.test_case "metrics readers" `Quick test_metrics_readers;
    Alcotest.test_case "metrics type mismatch" `Quick test_metrics_type_mismatch;
    Alcotest.test_case "json stable across insertion order" `Quick
      test_json_stable_across_insertion_order;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "datapath counters match stats" `Quick test_datapath_counters_match;
    Alcotest.test_case "datapath trace events" `Quick test_datapath_trace_events;
    Alcotest.test_case "disabled telemetry: no behavior change" `Quick
      test_disabled_telemetry_no_behavior_change ]
