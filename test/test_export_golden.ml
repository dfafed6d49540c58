(* Golden-file tests: the export formats are a contract. BENCH_*.json
   artifacts and CI diffs rely on Export.json_snapshot being byte-stable
   and on the text report's line shapes; any change here is a format
   break and must be deliberate. *)

open Pi_telemetry

(* Name a count held in a ref, as a datapath names its fields. *)
let count m name v =
  let r = ref v in
  Metrics.counter m name (fun () -> !r)

let level m name v =
  let r = ref v in
  Metrics.gauge m name (fun () -> !r)

(* A small fixed registry + tracer. The tracer ring holds 2 events and
   records 3, so the retained tallies ([by_kind]) have lost the first
   event while the cumulative ones ([by_kind_total]) have not — pinning
   the wrap-around-safe counting. *)
let fixture () =
  let m = Metrics.create () in
  count m "packets" 4;
  count m "emc_hit" 2;
  count m "mf_hit" 1;
  count m "upcall" 1;
  count m "mask_created" 3;
  count m "mf_probes" 7;
  level m "n_masks" 2.;
  level m "n_megaflows" 3.;
  let h = Metrics.histogram m "cycles_per_packet" in
  Histogram.observe h 100.;
  Histogram.observe h 300.;
  let tr = Tracer.create ~capacity:2 () in
  Tracer.record tr ~at:0.1 Tracer.Emc_hit;
  Tracer.record tr ~at:0.2 (Tracer.Mf_hit { probes = 2 });
  Tracer.record tr ~at:0.3 (Tracer.Upcall { slow_probes = 1 });
  (m, tr)

let golden_json =
  "{\"counters\":{\"emc_hit\":2,\"mask_created\":3,\"mf_hit\":1,\"mf_probes\":7,\
   \"packets\":4,\"upcall\":1},\"gauges\":{\"n_masks\":2,\"n_megaflows\":3},\
   \"histograms\":{\"cycles_per_packet\":{\"count\":2,\"mean\":200,\"min\":100,\
   \"max\":300,\"p50\":128,\"p99\":300}},\"trace\":{\"capacity\":2,\
   \"recorded\":3,\"dropped\":1,\"by_kind\":{\"mf_hit\":1,\"upcall\":1},\
   \"by_kind_total\":{\"emc_hit\":1,\"mf_hit\":1,\"upcall\":1}}}\n"

let golden_text =
  "lookups: hit:3 missed:1 lost:0\n\
   masks: current:2 created-total:3 hit/pkt:1.75\n\
   counters:\n\
  \  emc_hit: 2\n\
  \  mask_created: 3\n\
  \  mf_hit: 1\n\
  \  mf_probes: 7\n\
  \  packets: 4\n\
  \  upcall: 1\n\
   gauges:\n\
  \  n_masks: 2\n\
  \  n_megaflows: 3\n\
   histograms:\n\
  \  cycles_per_packet: count:2 mean:200.0 min:100.0 max:300.0 p50:128.0 p99:300.0\n\
   trace: 3 recorded, 2 retained, 1 dropped\n\
  \  emc_hit: 1 (retained 0)\n\
  \  mf_hit: 1 (retained 1)\n\
  \  upcall: 1 (retained 1)\n"

let test_json_snapshot () =
  let m, tr = fixture () in
  Alcotest.(check string) "byte-for-byte" golden_json
    (Export.json_snapshot ~tracer:tr m)

let test_text_report () =
  let m, tr = fixture () in
  Alcotest.(check string) "byte-for-byte" golden_text
    (Export.text_report ~tracer:tr m)

let test_text_report_no_gauge () =
  (* Without a live n_masks gauge the current count is unknowable from
     counters alone — the report must say so, not echo the cumulative. *)
  let m = Metrics.create () in
  count m "mask_created" 5;
  let r = Export.text_report m in
  Alcotest.(check bool) "current unknown" true
    (Helpers.Astring_like.contains r "masks: current:? created-total:5")

let test_text_report_lost () =
  (* A deferred datapath registers upcall_drops: the packets its full
     upcall queue refused are the report's [lost]. *)
  let m, _ = fixture () in
  count m "upcall_drops" 5;
  let r = Export.text_report m in
  Alcotest.(check bool) "lost reads upcall_drops" true
    (Helpers.Astring_like.contains r "lookups: hit:3 missed:1 lost:5\n")

let test_extra_sections () =
  let m, _ = fixture () in
  let j =
    Export.json_snapshot
      ~extra:[ ("attribution", {|{"tenants":[],"ports":[]}|}) ] m
  in
  let suffix = {|,"attribution":{"tenants":[],"ports":[]}}|} ^ "\n" in
  Alcotest.(check bool) "extra section appended verbatim" true
    (String.length j > String.length suffix
     && String.sub j (String.length j - String.length suffix)
          (String.length suffix)
        = suffix)

let suite =
  [ Alcotest.test_case "json snapshot golden" `Quick test_json_snapshot;
    Alcotest.test_case "text report golden" `Quick test_text_report;
    Alcotest.test_case "text report without n_masks gauge" `Quick
      test_text_report_no_gauge;
    Alcotest.test_case "text report with upcall drops" `Quick
      test_text_report_lost;
    Alcotest.test_case "extra json sections" `Quick test_extra_sections ]
