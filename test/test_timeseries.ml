(* Per-tick series are views over the scenario's samples: the report's
   window means and {!Scenario.timeseries}, which the [timeseries]
   section of [ovsdos attack --json] and BENCH_fig3.json print. *)

open Pi_sim

let run ?(n_shards = 1) ?(tick = 1.) ~duration ~start () =
  Scenario.run
    { Scenario.default_params with
      Scenario.duration;
      tick;
      n_shards;
      victim_flows = 500;
      victim_samples_per_tick = 100;
      attack =
        Some
          { Scenario.default_attack with
            Scenario.variant = Policy_injection.Variant.Src_only;
            start;
            attacker_exact_per_tick = 32 } }

let names = List.map fst

let test_basics () =
  let r = run ~n_shards:2 ~duration:8. ~start:3. () in
  let ts = Scenario.timeseries r in
  Alcotest.(check (list string)) "columns in JSON key order"
    [ "n_masks"; "n_megaflows"; "emc_occupancy"; "shard0/n_masks";
      "shard1/n_masks" ]
    (names ts);
  let expect name f =
    Alcotest.(check (list (pair (float 0.) (float 0.)))) name
      (List.map
         (fun (s : Scenario.sample) -> (s.Scenario.time, float_of_int (f s)))
         r.Scenario.samples)
      (List.assoc name ts)
  in
  expect "n_masks" (fun s -> s.Scenario.n_masks);
  expect "n_megaflows" (fun s -> s.Scenario.n_megaflows);
  expect "emc_occupancy" (fun s -> s.Scenario.emc_occupancy);
  expect "shard0/n_masks" (fun s -> s.Scenario.shard_masks.(0));
  expect "shard1/n_masks" (fun s -> s.Scenario.shard_masks.(1));
  Alcotest.(check bool) "the attack shows in the mask column" true
    (List.exists (fun (_, v) -> v >= 32.) (List.assoc "n_masks" ts))

let test_one_point_per_tick () =
  let r = run ~tick:0.5 ~duration:3. ~start:1. () in
  let ts = Scenario.timeseries r in
  Alcotest.(check (list string)) "one shard, one shard column"
    [ "n_masks"; "n_megaflows"; "emc_occupancy"; "shard0/n_masks" ]
    (names ts);
  List.iter
    (fun (name, points) ->
      Alcotest.(check (list (float 0.))) (name ^ ": one point per tick")
        [ 0.; 0.5; 1.; 1.5; 2.; 2.5 ] (List.map fst points))
    ts

let mean_between (r : Scenario.report) lo hi =
  let vs =
    List.filter_map
      (fun (s : Scenario.sample) ->
        if s.Scenario.time >= lo && s.Scenario.time < hi then
          Some s.Scenario.victim_gbps
        else None)
      r.Scenario.samples
  in
  List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)

let test_window () =
  (* The post-attack window opens 10 s after the attack starts. *)
  let r = run ~duration:16. ~start:2. () in
  Alcotest.(check (float 0.)) "pre: [0, start)" (mean_between r 0. 2.)
    r.Scenario.pre_attack_mean_gbps;
  Alcotest.(check (float 0.)) "post: [start + 10, end)" (mean_between r 12. 16.)
    r.Scenario.post_attack_mean_gbps

let test_empty_window_nan () =
  let r = run ~duration:8. ~start:2. () in
  Alcotest.(check bool) "pre measured" false
    (Float.is_nan r.Scenario.pre_attack_mean_gbps);
  Alcotest.(check bool) "no post window: nan" true
    (Float.is_nan r.Scenario.post_attack_mean_gbps);
  let r = run ~duration:8. ~start:0. () in
  Alcotest.(check bool) "attack from 0: no pre window, nan" true
    (Float.is_nan r.Scenario.pre_attack_mean_gbps)

let test_empty_series () =
  let r = run ~duration:0. ~start:0. () in
  Alcotest.(check int) "no ticks" 0 (List.length r.Scenario.samples);
  Alcotest.(check (list (pair string int))) "every column, empty"
    [ ("n_masks", 0); ("n_megaflows", 0); ("emc_occupancy", 0);
      ("shard0/n_masks", 0) ]
    (List.map (fun (n, ps) -> (n, List.length ps)) (Scenario.timeseries r))

let suite =
  [ Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "one point per tick" `Quick test_one_point_per_tick;
    Alcotest.test_case "window" `Quick test_window;
    Alcotest.test_case "empty window nan" `Quick test_empty_window_nan;
    Alcotest.test_case "empty series" `Quick test_empty_series ]
