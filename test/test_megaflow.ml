open Pi_ovs
open Pi_classifier
open Helpers

module Astring_like = Helpers.Astring_like

let src_mask len = Mask.with_prefix Mask.empty Field.Ip_src len

let mk ?config () = Megaflow.create ?config ()

let test_insert_lookup () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let _e =
    Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0
      ~now:0. ()
  in
  let s = Megaflow.lookup_stats () in
  match mf_lookup ~stats:s mf (Flow.make ~ip_src:(ip "10.9.9.9") ()) ~now:1. ~pkt_len:100 with
  | Some e ->
    Alcotest.(check action_t) "action" Action.Drop e.Megaflow.action;
    Alcotest.(check int) "one probe" 1 s.Megaflow.s_probes;
    Alcotest.(check int) "stats pkts" 1 e.Megaflow.n_packets;
    Alcotest.(check int) "stats bytes" 100 e.Megaflow.n_bytes
  | None -> Alcotest.fail "expected hit"

let test_miss_probes_all_masks () =
  let mf = mk () in
  for i = 1 to 5 do
    let key = Flow.make ~ip_src:(Int32.shift_left 1l (32 - i)) () in
    ignore (Megaflow.insert mf ~key ~mask:(src_mask i) ~action:Action.Drop ~revision:0 ~now:0. ())
  done;
  let s = Megaflow.lookup_stats () in
  match mf_lookup ~stats:s mf (Flow.make ~ip_src:0l ()) ~now:0. ~pkt_len:1 with
  | None -> Alcotest.(check int) "probed all 5 masks" 5 s.Megaflow.s_probes
  | Some _ -> Alcotest.fail "expected miss"

let test_scan_order_is_creation_order () =
  let mf = mk () in
  (* Broad mask first, narrower later; a flow matching both masked keys
     must hit the first-created. *)
  let k1 = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key:k1 ~mask:(src_mask 8) ~action:(Action.Output 1) ~revision:0 ~now:0. ());
  let k2 = Flow.make ~ip_src:(ip "10.0.0.1") () in
  ignore (Megaflow.insert mf ~key:k2 ~mask:(src_mask 32) ~action:(Action.Output 2) ~revision:0 ~now:0. ());
  let s = Megaflow.lookup_stats () in
  match mf_lookup ~stats:s mf (Flow.make ~ip_src:(ip "10.0.0.1") ()) ~now:0. ~pkt_len:1 with
  | Some e ->
    Alcotest.(check action_t) "first mask wins" (Action.Output 1) e.Megaflow.action;
    Alcotest.(check int) "one probe" 1 s.Megaflow.s_probes
  | None -> Alcotest.fail "expected hit"

(* The caller-owned stats record is the only probe-reporting channel: a
   commit reports into the record it was given and into no other. *)
let test_probe_reporting_post_retirement () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "11.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  let other = Megaflow.lookup_stats () in
  (match mf_lookup ~stats:other mf (Flow.make ~ip_src:(ip "99.0.0.1") ()) ~now:0. ~pkt_len:1 with
   | None -> ()
   | Some _ -> Alcotest.fail "expected miss");
  let s = Megaflow.lookup_stats () in
  ignore (mf_lookup ~stats:s mf key ~now:0. ~pkt_len:1);
  Alcotest.(check int) "caller-owned record reports" 1 s.Megaflow.s_probes;
  Alcotest.(check int) "another record untouched" 2 other.Megaflow.s_probes

let test_replace_same_key () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:(Action.Output 3) ~revision:0 ~now:0. ());
  Alcotest.(check int) "still one entry" 1 (Megaflow.n_entries mf);
  match mf_lookup mf key ~now:0. ~pkt_len:1 with
  | Some e -> Alcotest.(check action_t) "replaced" (Action.Output 3) e.Megaflow.action
  | None -> Alcotest.fail "expected hit"

let test_idle_expiry () =
  let mf = mk ~config:{ Megaflow.max_entries = 100; idle_timeout = 10. } () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check int) "nothing expires early" 0 (Megaflow.revalidate mf ~now:5. ());
  Alcotest.(check int) "expires after timeout" 1 (Megaflow.revalidate mf ~now:20. ());
  Alcotest.(check int) "no entries" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks" 0 (Megaflow.n_masks mf)

let test_usage_refreshes_idle () =
  let mf = mk ~config:{ Megaflow.max_entries = 100; idle_timeout = 10. } () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (mf_lookup mf key ~now:8. ~pkt_len:1);
  Alcotest.(check int) "refreshed by traffic" 0 (Megaflow.revalidate mf ~now:15. ())

let test_revision_keep () =
  let mf = mk () in
  let k1 = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let k2 = Flow.make ~ip_src:(ip "11.0.0.0") () in
  ignore (Megaflow.insert mf ~key:k1 ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:k2 ~mask:(src_mask 8) ~action:Action.Drop ~revision:1 ~now:0. ());
  let evicted =
    Megaflow.revalidate mf ~now:1. ~keep:(fun e -> e.Megaflow.revision = 1) ()
  in
  Alcotest.(check int) "stale revision evicted" 1 evicted;
  Alcotest.(check int) "one left" 1 (Megaflow.n_entries mf)

let test_alive_flag () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. () in
  Alcotest.(check bool) "alive" true e.Megaflow.alive;
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "dead after eviction" false e.Megaflow.alive

let test_flow_limit_eviction () =
  let mf = mk ~config:{ Megaflow.max_entries = 50; idle_timeout = 1e9 } () in
  for i = 0 to 59 do
    let key = Flow.make ~ip_src:(Int32.of_int i) () in
    ignore
      (Megaflow.insert mf ~key ~mask:(Mask.with_exact Mask.empty Field.Ip_src)
         ~action:Action.Drop ~revision:0 ~now:(float_of_int i) ())
  done;
  Alcotest.(check bool) "bounded" true (Megaflow.n_entries mf <= 51)

let test_flush () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. () in
  Megaflow.flush mf;
  Alcotest.(check int) "empty" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks" 0 (Megaflow.n_masks mf);
  Alcotest.(check bool) "entries dead" false e.Megaflow.alive

let test_counters () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  ignore (Megaflow.insert mf ~key ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (mf_lookup mf key ~now:0. ~pkt_len:1);
  ignore (mf_lookup mf (Flow.make ~ip_src:(ip "99.0.0.1") ()) ~now:0. ~pkt_len:1);
  Alcotest.(check int) "hits" 1 (Megaflow.hits mf);
  Alcotest.(check int) "misses" 1 (Megaflow.misses mf);
  Alcotest.(check int) "probes accumulated" 2 (Megaflow.total_probes mf);
  Megaflow.reset_stats mf;
  Alcotest.(check int) "reset" 0 (Megaflow.hits mf)

let test_masks_listing () =
  let mf = mk () in
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check (list mask_t)) "creation order" [ src_mask 8; src_mask 16 ]
    (Megaflow.masks mf)

let test_pp_entry () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 9) ~action:Action.Drop ~revision:0 ~now:0. () in
  ignore (mf_lookup mf key ~now:4.2 ~pkt_len:100);
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:6.7) e in
  Alcotest.(check bool) "prefix rendered" true
    (Astring_like.contains s "ip_src=10.0.0.0/9");
  Alcotest.(check bool) "stats rendered" true
    (Astring_like.contains s "packets:1");
  Alcotest.(check bool) "action rendered" true
    (Astring_like.contains s "actions:drop");
  (* dpctl semantics: "used:" is the age since the last hit (6.7 - 4.2),
     not the absolute stamp. *)
  Alcotest.(check bool) "age rendered, not absolute stamp" true
    (Astring_like.contains s "used:2.50s");
  Alcotest.(check bool) "absolute stamp absent" false
    (Astring_like.contains s "used:4.20s")

let test_pp_entry_never_used () =
  let mf = mk () in
  let key = Flow.make ~ip_src:(ip "10.0.0.0") () in
  let e = Megaflow.insert mf ~key ~mask:(src_mask 9) ~action:Action.Drop ~revision:0 ~now:3. () in
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:9.) e in
  Alcotest.(check bool) "no traffic yet prints never" true
    (Astring_like.contains s "used:never")

let test_pp_entry_match_any () =
  let mf = mk () in
  let e =
    Megaflow.insert mf ~key:Flow.zero ~mask:Mask.empty ~action:(Action.Output 3)
      ~revision:0 ~now:0. ()
  in
  let s = Format.asprintf "%a" (Megaflow.pp_entry ~now:0.) e in
  Alcotest.(check bool) "wildcard-all rendered" true
    (Astring_like.contains s "match=any")

let test_dump_limit () =
  let mf = mk () in
  for i = 1 to 10 do
    ignore
      (Megaflow.insert mf ~key:(Flow.make ~ip_src:(Int32.of_int i) ())
         ~mask:(Mask.with_exact Mask.empty Field.Ip_src) ~action:Action.Drop
         ~revision:0 ~now:0. ())
  done;
  let s = Format.asprintf "%a" (fun ppf () -> Megaflow.dump ~max:3 ~now:0. ppf mf) () in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "truncation notice" true
    (List.exists (fun l -> Astring_like.contains l "7 more") lines)

let test_has_mask () =
  let mf = mk () in
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check bool) "present" true (Megaflow.has_mask mf (src_mask 8));
  Alcotest.(check bool) "absent" false (Megaflow.has_mask mf (src_mask 9));
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "gone after expiry" false (Megaflow.has_mask mf (src_mask 8))

let test_generation_tracks_reorders () =
  let mf = mk () in
  let g0 = Megaflow.generation mf in
  (* Appends keep existing subtable indices valid: no bump. *)
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 8) ~action:Action.Drop ~revision:0 ~now:0. ());
  ignore (Megaflow.insert mf ~key:(Flow.make ~ip_src:(ip "10.0.0.0") ()) ~mask:(src_mask 16) ~action:Action.Drop ~revision:0 ~now:0. ());
  Alcotest.(check int) "append keeps generation" g0 (Megaflow.generation mf);
  (* Reordering the subtable array invalidates recorded indices. *)
  Megaflow.resort_by_hits mf;
  Alcotest.(check bool) "resort bumps generation" true
    (Megaflow.generation mf > g0);
  let g1 = Megaflow.generation mf in
  (* Expiry that drops a subtable compacts the array: bump again. *)
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check bool) "compaction bumps generation" true
    (Megaflow.generation mf > g1)

let test_subtable_stats_probe_health () =
  let mf = mk () in
  for i = 1 to 100 do
    ignore
      (Megaflow.insert mf ~key:(Flow.make ~ip_src:(Int32.of_int i) ())
         ~mask:(Mask.with_exact Mask.empty Field.Ip_src) ~action:Action.Drop
         ~revision:0 ~now:0. ())
  done;
  match Megaflow.subtable_stats mf with
  | [ s ] ->
    Alcotest.(check int) "entries" 100 s.Megaflow.ms_entries;
    Alcotest.(check bool) "capacity is a power of two" true
      (s.Megaflow.ms_capacity land (s.Megaflow.ms_capacity - 1) = 0);
    Alcotest.(check bool) "capacity holds the entries" true
      (s.Megaflow.ms_capacity > s.Megaflow.ms_entries);
    Alcotest.(check bool) "mean probe sane" true
      (s.Megaflow.ms_mean_probe >= 1.
       && s.Megaflow.ms_mean_probe <= float_of_int s.Megaflow.ms_max_probe);
    Alcotest.(check bool) "max probe bounded by entries" true
      (s.Megaflow.ms_max_probe >= 1 && s.Megaflow.ms_max_probe <= 100)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 subtable, got %d" (List.length l))

(* Heavy interleaved insert/remove churn: every removal exercises
   backward-shift deletion and swap-with-last arena compaction; the
   survivors must stay reachable with their own actions. *)
let test_churn_keeps_survivors_reachable () =
  let mf = mk ~config:{ Megaflow.max_entries = 100_000; idle_timeout = 1e9 } () in
  let mask = Mask.with_exact Mask.empty Field.Ip_src in
  let key i = Flow.make ~ip_src:(Int32.of_int i) () in
  for i = 0 to 499 do
    ignore
      (Megaflow.insert mf ~key:(key i) ~mask ~action:(Action.Output i)
         ~revision:(i mod 2) ~now:0. ())
  done;
  (* Evict every odd-revision entry (every second one). *)
  let evicted =
    Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision = 0) ()
  in
  Alcotest.(check int) "half evicted" 250 evicted;
  for i = 0 to 499 do
    match mf_lookup mf (key i) ~now:0. ~pkt_len:1 with
    | Some e when i mod 2 = 0 ->
      Alcotest.(check action_t) "survivor action" (Action.Output i) e.Megaflow.action
    | None when i mod 2 = 1 -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "evicted %d still reachable" i)
    | None -> Alcotest.fail (Printf.sprintf "survivor %d lost" i)
  done;
  (* Re-fill the holes and drain completely: the table must come back
     to exactly the survivors' shape, then to empty. *)
  for i = 0 to 499 do
    if i mod 2 = 1 then
      ignore
        (Megaflow.insert mf ~key:(key i) ~mask ~action:(Action.Output i)
           ~revision:0 ~now:0. ())
  done;
  Alcotest.(check int) "refilled" 500 (Megaflow.n_entries mf);
  ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun _ -> false) ());
  Alcotest.(check int) "drained" 0 (Megaflow.n_entries mf);
  Alcotest.(check int) "no masks left" 0 (Megaflow.n_masks mf)

(* Growing the subtable array must never fill it with a young value: on
   OCaml 5 that forces a minor collection once the array passes 256
   words, i.e. once per round of a workload that re-mints hundreds of
   masks after each revalidation. With a minor heap large enough for the
   whole round, re-minting 600 masks must not collect at all. *)
let test_mask_mint_forces_no_collection () =
  let mf = mk () in
  let masks =
    Array.init 600 (fun i ->
        Mask.with_prefix (src_mask (1 + (i mod 32))) Field.Ip_dst (i / 32))
  in
  let key = Flow.make ~ip_src:(ip "10.0.0.1") ~ip_dst:(ip "10.0.0.2") () in
  let mint now =
    Array.iter
      (fun mask ->
        ignore
          (Megaflow.insert mf ~key ~mask ~action:Action.Drop ~revision:0 ~now ()))
      masks
  in
  mint 0.;
  ignore (Megaflow.revalidate mf ~now:100. ());
  Alcotest.(check int) "every mask evicted" 0 (Megaflow.n_masks mf);
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 1 lsl 20 };
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  mint 200.;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.set saved;
  Alcotest.(check int) "masks re-minted" 600 (Megaflow.n_masks mf);
  Alcotest.(check int) "minor collections while minting" 0 (after - before)

let suite =
  [ Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "miss probes all masks" `Quick test_miss_probes_all_masks;
    Alcotest.test_case "scan order = creation order" `Quick test_scan_order_is_creation_order;
    Alcotest.test_case "probe reporting post-retirement" `Quick test_probe_reporting_post_retirement;
    Alcotest.test_case "replace same key" `Quick test_replace_same_key;
    Alcotest.test_case "idle expiry" `Quick test_idle_expiry;
    Alcotest.test_case "usage refreshes idle" `Quick test_usage_refreshes_idle;
    Alcotest.test_case "revision keep" `Quick test_revision_keep;
    Alcotest.test_case "alive flag" `Quick test_alive_flag;
    Alcotest.test_case "flow limit eviction" `Quick test_flow_limit_eviction;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "masks listing" `Quick test_masks_listing;
    Alcotest.test_case "pp_entry" `Quick test_pp_entry;
    Alcotest.test_case "pp_entry never used" `Quick test_pp_entry_never_used;
    Alcotest.test_case "pp_entry wildcard-all" `Quick test_pp_entry_match_any;
    Alcotest.test_case "dump limit" `Quick test_dump_limit;
    Alcotest.test_case "has_mask" `Quick test_has_mask;
    Alcotest.test_case "subtable stats probe health" `Quick test_subtable_stats_probe_health;
    Alcotest.test_case "churn keeps survivors reachable" `Quick test_churn_keeps_survivors_reachable;
    Alcotest.test_case "generation tracks reorders" `Quick test_generation_tracks_reorders;
    Alcotest.test_case "mask minting forces no minor collection" `Quick
      test_mask_mint_forces_no_collection ]
