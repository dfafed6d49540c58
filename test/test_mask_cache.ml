open Pi_ovs
open Pi_classifier
open Helpers

let src_mask len = Mask.with_prefix Mask.empty Field.Ip_src len

let test_capacity_pow2 () =
  Alcotest.(check int) "rounded" 256 (Mask_cache.capacity (Mask_cache.create ()));
  Alcotest.(check int) "rounded up" 128
    (Mask_cache.capacity (Mask_cache.create ~capacity:100 ()))

let test_hint_record () =
  let c = Mask_cache.create () in
  let f = Flow.make ~ip_src:(ip "10.0.0.1") () in
  Alcotest.(check int) "empty" (-1) (Mask_cache.hint c f);
  Mask_cache.record c f 7;
  Alcotest.(check int) "recorded" 7 (Mask_cache.hint c f);
  Mask_cache.clear c;
  Alcotest.(check int) "cleared" (-1) (Mask_cache.hint c f)

let test_collision_overwrites () =
  let c = Mask_cache.create ~capacity:1 () in
  let f1 = Flow.make ~ip_src:(ip "10.0.0.1") () in
  let f2 = Flow.make ~ip_src:(ip "10.0.0.2") () in
  Mask_cache.record c f1 3;
  Mask_cache.record c f2 9;
  Alcotest.(check int) "overwritten" 9 (Mask_cache.hint c f1)

(* A megaflow cache with [n] masks; an entry matching [flow] sits under
   the LAST mask, so unhinted lookups pay n probes. *)
let deep_megaflow n flow =
  let mf = Megaflow.create () in
  for i = 1 to n - 1 do
    let key = Flow.make ~ip_src:0xFFFFFFFFl () in
    ignore (Megaflow.insert mf ~key ~mask:(src_mask i) ~action:Action.Drop ~revision:0 ~now:0. ())
  done;
  ignore
    (Megaflow.insert mf ~key:flow ~mask:Mask.exact ~action:(Action.Output 1)
       ~revision:0 ~now:0. ());
  mf

let test_hinted_lookup_o1 () =
  let flow = Flow.make ~ip_src:(ip "10.0.0.9") () in
  let mf = deep_megaflow 32 flow in
  let cache = Mask_cache.create () in
  let s = Megaflow.lookup_stats () in
  (* First lookup: full scan, hint recorded. *)
  let e1 = mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10 in
  Alcotest.(check bool) "found" true (e1 <> None);
  Alcotest.(check int) "cold lookup scans" 32 s.Megaflow.s_probes;
  (* Second lookup: one probe via the hint. *)
  let e2 = mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10 in
  Alcotest.(check bool) "found again" true (e2 <> None);
  Alcotest.(check int) "hinted lookup is one probe" 1 s.Megaflow.s_probes;
  Alcotest.(check int) "cache hit counted" 1 (Mask_cache.hits cache);
  Alcotest.(check int) "cold counted as miss" 1 (Mask_cache.misses cache)

let test_stale_hint_pays_extra_probe () =
  let flow = Flow.make ~ip_src:(ip "10.0.0.9") () in
  let mf = deep_megaflow 8 flow in
  let cache = Mask_cache.create () in
  let s = Megaflow.lookup_stats () in
  (* Poison the slot with a wrong index. *)
  Mask_cache.record cache flow 2;
  ignore (mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10);
  Alcotest.(check int) "stale probe + full scan" (1 + 8) s.Megaflow.s_probes

let test_out_of_range_hint_not_charged () =
  let flow = Flow.make ~ip_src:(ip "10.0.0.9") () in
  let mf = deep_megaflow 8 flow in
  let cache = Mask_cache.create () in
  let s = Megaflow.lookup_stats () in
  (* A hint beyond the subtable array probes nothing, so the fallback
     scan must not be charged a phantom failed-hint probe: 8, not 9. *)
  Mask_cache.record cache flow 100;
  let e = mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10 in
  Alcotest.(check bool) "found" true (e <> None);
  Alcotest.(check int) "no probe charged for the bogus index" 8 s.Megaflow.s_probes

let test_resort_invalidates_hints () =
  let flow = Flow.make ~ip_src:(ip "10.0.0.9") () in
  (* The matching entry sits under the LAST of 8 masks. *)
  let mf = deep_megaflow 8 flow in
  let cache = Mask_cache.create () in
  let s = Megaflow.lookup_stats () in
  ignore (mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10);
  ignore (mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10);
  Alcotest.(check int) "hint serves before resort" 1 s.Megaflow.s_probes;
  (* Ranking moves the (only) hit subtable to the front and reorders the
     array: every recorded index is now stale. The cache must be
     invalidated — a stale hint would probe a cold subtable first and
     pay 2 where a clean scan pays 1. *)
  Megaflow.resort_by_hits mf;
  let e = mf_lookup ~stats:s ~cache mf flow ~now:0. ~pkt_len:10 in
  Alcotest.(check bool) "still found" true (e <> None);
  Alcotest.(check int) "no stale probe after resort" 1 s.Megaflow.s_probes;
  Alcotest.(check int) "invalidated lookup counted as miss" 2
    (Mask_cache.misses cache)

let test_sync_generation () =
  let c = Mask_cache.create () in
  let f = Flow.make ~ip_src:(ip "10.0.0.1") () in
  Mask_cache.record c f 3;
  Mask_cache.sync_generation c (Mask_cache.generation c);
  Alcotest.(check int) "same generation keeps hints" 3 (Mask_cache.hint c f);
  Mask_cache.sync_generation c 42;
  Alcotest.(check int) "new generation clears hints" (-1) (Mask_cache.hint c f);
  Alcotest.(check int) "generation adopted" 42 (Mask_cache.generation c)

let test_hinted_miss () =
  let flow = Flow.make ~ip_src:(ip "10.0.0.9") () in
  let mf = deep_megaflow 8 flow in
  let cache = Mask_cache.create () in
  let stranger = Flow.make ~ip_src:(ip "99.0.0.1") ~tp_dst:7 () in
  let s = Megaflow.lookup_stats () in
  let e = mf_lookup ~stats:s ~cache mf stranger ~now:0. ~pkt_len:10 in
  Alcotest.(check bool) "miss" true (e = None);
  Alcotest.(check int) "scanned everything" 8 s.Megaflow.s_probes

let test_resort_by_hits () =
  let mf = Megaflow.create () in
  let cold_key = Flow.make ~ip_src:0xFFFFFFFFl () in
  ignore (Megaflow.insert mf ~key:cold_key ~mask:(src_mask 1) ~action:Action.Drop ~revision:0 ~now:0. ());
  let hot = Flow.make ~ip_src:(ip "10.0.0.9") () in
  ignore (Megaflow.insert mf ~key:hot ~mask:Mask.exact ~action:Action.Drop ~revision:0 ~now:0. ());
  (* Hot flow hits the second subtable repeatedly... *)
  for _ = 1 to 10 do
    ignore (mf_lookup mf hot ~now:0. ~pkt_len:10)
  done;
  let s = Megaflow.lookup_stats () in
  ignore (mf_lookup ~stats:s mf hot ~now:0. ~pkt_len:10);
  Alcotest.(check int) "second position before ranking" 2 s.Megaflow.s_probes;
  Megaflow.resort_by_hits mf;
  ignore (mf_lookup ~stats:s mf hot ~now:0. ~pkt_len:10);
  Alcotest.(check int) "first position after ranking" 1 s.Megaflow.s_probes

let test_datapath_kernel_flavour () =
  let config =
    { Datapath.default_config with
      Datapath.emc_enabled = false;
      mask_cache_capacity = Some 256 }
  in
  let dp = Datapath.create ~config (Pi_pkt.Prng.create 8L) () in
  Datapath.install_rules dp
    [ Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ];
  let f = Flow.make ~ip_src:(ip "10.0.0.1") () in
  (* 1st: upcall; 2nd: scan + hint recorded; 3rd: served by the hint. *)
  ignore (Datapath.process dp ~now:0. f ~pkt_len:10);
  ignore (Datapath.process dp ~now:0. f ~pkt_len:10);
  let _, o = Datapath.process dp ~now:0. f ~pkt_len:10 in
  Alcotest.(check int) "hinted: one probe" 1 o.Cost_model.mf_probes;
  match Datapath.mask_cache dp with
  | Some c -> Alcotest.(check bool) "cache hits recorded" true (Mask_cache.hits c >= 1)
  | None -> Alcotest.fail "mask cache missing"

let test_datapath_ranking () =
  let config =
    { Datapath.default_config with
      Datapath.emc_enabled = false;
      rank_subtables = true }
  in
  let dp = Datapath.create ~config (Pi_pkt.Prng.create 8L) () in
  Datapath.install_rules dp
    [ Rule.make ~priority:100
        ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
        ~action:(Action.Output 1) ();
      Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ];
  (* Create some deny masks, then hammer the allow megaflow. *)
  for k = 0 to 15 do
    let src = Int32.logxor (ip "10.0.0.10") (Int32.shift_left 1l (31 - k)) in
    ignore (Datapath.process dp ~now:0. (Flow.make ~ip_src:src ()) ~pkt_len:10)
  done;
  let hot = Flow.make ~ip_src:(ip "10.0.0.10") () in
  for _ = 1 to 50 do
    ignore (Datapath.process dp ~now:0.1 hot ~pkt_len:10)
  done;
  let _, before = Datapath.process dp ~now:0.2 hot ~pkt_len:10 in
  ignore (Datapath.revalidate dp ~now:0.3);  (* triggers the resort *)
  let _, after = Datapath.process dp ~now:0.4 hot ~pkt_len:10 in
  Alcotest.(check bool)
    (Printf.sprintf "ranking moved the hot mask forward (%d -> %d)"
       before.Cost_model.mf_probes after.Cost_model.mf_probes)
    true
    (after.Cost_model.mf_probes < before.Cost_model.mf_probes);
  Alcotest.(check int) "hot mask now first" 1 after.Cost_model.mf_probes

(* Megaflow caches for the equivalence properties are built the honest
   way — populated through a slow path from random rule sets — because
   the cache's non-overlap invariant (which makes scan order and hints
   irrelevant to verdicts) only holds for slow-path-generated entries. *)
let gen_setting =
  let open QCheck2.Gen in
  let gen_rule =
    let* pattern = Helpers.gen_small_pattern in
    let* priority = int_range 0 8 in
    let* out = int_range 1 3 in
    return (Rule.make ~priority ~pattern ~action:(Action.Output out) ())
  in
  triple
    (list_size (int_range 1 8) gen_rule)
    (list_size (return 30) Helpers.gen_small_flow)
    (list_size (return 20) Helpers.gen_small_flow)

let build_mf rules warm_flows =
  let config = { Datapath.default_config with Datapath.emc_enabled = false } in
  let dp = Datapath.create ~config (Pi_pkt.Prng.create 1L) () in
  Datapath.install_rules dp rules;
  List.iter
    (fun f -> ignore (Datapath.process dp ~now:0. f ~pkt_len:1))
    warm_flows;
  Datapath.megaflow dp

let entry_action = function
  | Some (e : Megaflow.entry) -> Some e.Megaflow.action
  | None -> None

let prop_hinted_equiv =
  qtest ~count:200 "hinted lookup ≡ plain lookup" gen_setting
    (fun (rules, warm, flows) ->
      let mf_a = build_mf rules warm in
      let mf_b = build_mf rules warm in
      let cache = Mask_cache.create () in
      List.for_all
        (fun f ->
          (* Look each flow up twice so hints are exercised. *)
          let a1 = entry_action (mf_lookup mf_a f ~now:0. ~pkt_len:1) in
          let b1 = entry_action (mf_lookup ~cache mf_b f ~now:0. ~pkt_len:1) in
          let b2 = entry_action (mf_lookup ~cache mf_b f ~now:0. ~pkt_len:1) in
          a1 = b1 && b1 = b2)
        flows)

let prop_resort_preserves =
  qtest ~count:200 "ranking preserves verdicts" gen_setting
    (fun (rules, warm, flows) ->
      let mf = build_mf rules warm in
      let before =
        List.map (fun f -> entry_action (mf_lookup mf f ~now:0. ~pkt_len:1)) flows
      in
      Megaflow.resort_by_hits mf;
      let after =
        List.map (fun f -> entry_action (mf_lookup mf f ~now:0. ~pkt_len:1)) flows
      in
      before = after)

let suite =
  [ Alcotest.test_case "capacity power of two" `Quick test_capacity_pow2;
    Alcotest.test_case "hint/record/clear" `Quick test_hint_record;
    Alcotest.test_case "collision overwrites" `Quick test_collision_overwrites;
    Alcotest.test_case "hinted lookup is O(1)" `Quick test_hinted_lookup_o1;
    Alcotest.test_case "stale hint pays a probe" `Quick test_stale_hint_pays_extra_probe;
    Alcotest.test_case "out-of-range hint not charged" `Quick test_out_of_range_hint_not_charged;
    Alcotest.test_case "resort invalidates hints" `Quick test_resort_invalidates_hints;
    Alcotest.test_case "sync_generation" `Quick test_sync_generation;
    Alcotest.test_case "hinted miss scans all" `Quick test_hinted_miss;
    Alcotest.test_case "resort_by_hits" `Quick test_resort_by_hits;
    Alcotest.test_case "datapath kernel flavour" `Quick test_datapath_kernel_flavour;
    Alcotest.test_case "datapath pvector ranking" `Quick test_datapath_ranking;
    prop_hinted_equiv;
    prop_resort_preserves ]
