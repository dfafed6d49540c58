open Pi_ovs
open Pi_classifier
open Helpers

let mk ?(capacity = 64) ?(insert_inv_prob = 1) () =
  Emc.create ~capacity ~insert_inv_prob (Pi_pkt.Prng.create 1L) ()

let flow i = Flow.make ~ip_src:(Int32.of_int i) ~tp_src:(i land 0xFFFF) ()

let test_hit_miss () =
  let e = mk () in
  let f = flow 1 in
  Alcotest.(check (option string)) "miss" None (Emc.lookup e f);
  Emc.insert e f "v";
  Alcotest.(check (option string)) "hit" (Some "v") (Emc.lookup e f);
  Alcotest.(check int) "hits" 1 (Emc.hits e);
  Alcotest.(check int) "misses" 1 (Emc.misses e)

let test_capacity_pow2 () =
  let e = Emc.create ~capacity:100 ~insert_inv_prob:1 (Pi_pkt.Prng.create 1L) () in
  Alcotest.(check int) "rounded to 128" 128 (Emc.capacity e)

let test_exact_match_only () =
  let e = mk () in
  Emc.insert e (flow 1) "v";
  Alcotest.(check (option string)) "different flow misses" None
    (Emc.lookup e (flow 2))

let test_eviction_on_collision () =
  (* Capacity 1: every flow maps to the same slot. *)
  let e = mk ~capacity:1 () in
  Emc.insert e (flow 1) "a";
  Emc.insert e (flow 2) "b";
  Alcotest.(check (option string)) "old evicted" None (Emc.lookup e (flow 1));
  Alcotest.(check (option string)) "new present" (Some "b") (Emc.lookup e (flow 2));
  Alcotest.(check int) "occupancy stays 1" 1 (Emc.occupancy e)

let test_probabilistic_insert () =
  let e = Emc.create ~capacity:1024 ~insert_inv_prob:100 (Pi_pkt.Prng.create 7L) () in
  let inserted = ref 0 in
  for i = 0 to 999 do
    Emc.insert e (flow i) "x";
    ignore i
  done;
  inserted := Emc.occupancy e;
  (* Expect ~10 of 1000 at 1/100 (allow generous slack). *)
  if !inserted > 40 then Alcotest.failf "too many inserts: %d" !inserted;
  if !inserted = 0 then Alcotest.fail "no inserts at all"

let test_insert_forced () =
  let e = Emc.create ~capacity:64 ~insert_inv_prob:1_000_000 (Pi_pkt.Prng.create 7L) () in
  Emc.insert_forced e (flow 1) "v";
  Alcotest.(check (option string)) "forced insert hit" (Some "v")
    (Emc.lookup e (flow 1))

(* The stored option is the caller's own box, so a later hit hands back
   exactly it: the megaflow miss path re-uses the arena's [Some]. *)
let test_insert_stored () =
  let e = mk ~capacity:64 () in
  let r = Some "v" in
  Emc.insert_stored e (flow 1) r;
  Alcotest.(check bool) "hit returns the stored box" true
    (Emc.lookup e (flow 1) == r);
  match Emc.insert_stored e (flow 2) None with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "None should raise"

let test_invalidate_if () =
  let e = mk () in
  Emc.insert e (flow 1) "dead";
  Emc.insert e (flow 2) "live";
  let n = Emc.invalidate_if e (fun v -> v = "dead") in
  Alcotest.(check int) "one invalidated" 1 n;
  Alcotest.(check (option string)) "dead gone" None (Emc.lookup e (flow 1));
  Alcotest.(check (option string)) "live stays" (Some "live") (Emc.lookup e (flow 2))

let test_clear () =
  let e = mk () in
  Emc.insert e (flow 1) "v";
  Emc.clear e;
  Alcotest.(check int) "empty" 0 (Emc.occupancy e);
  Alcotest.(check (option string)) "miss after clear" None (Emc.lookup e (flow 1))

let test_reset_stats () =
  let e = mk () in
  ignore (Emc.lookup e (flow 1));
  Emc.reset_stats e;
  Alcotest.(check int) "hits reset" 0 (Emc.hits e);
  Alcotest.(check int) "misses reset" 0 (Emc.misses e)

let test_dead_entry_counts_as_miss () =
  let e =
    Emc.create ~capacity:8 ~insert_inv_prob:1 ~valid:(fun v -> v <> "dead")
      (Pi_pkt.Prng.create 1L) ()
  in
  let f = flow 1 in
  Emc.insert e f "dead";
  (* A cached value the create-time validity predicate rejects (a stale
     reference to an evicted megaflow) must count as a miss, not a hit —
     and the dead slot is reclaimed on the spot. *)
  Alcotest.(check (option string)) "dead entry rejected" None
    (Emc.lookup e f);
  Alcotest.(check int) "no phantom hit" 0 (Emc.hits e);
  Alcotest.(check int) "counted as miss" 1 (Emc.misses e);
  Alcotest.(check int) "dead slot evicted" 0 (Emc.occupancy e);
  (* The slot is free for reuse. *)
  Emc.insert e f "live";
  Alcotest.(check (option string)) "live value accepted" (Some "live")
    (Emc.lookup e f);
  Alcotest.(check int) "real hit counted" 1 (Emc.hits e)

let test_invalid_args () =
  (match Emc.create ~capacity:0 (Pi_pkt.Prng.create 1L) () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "capacity 0 should raise");
  match Emc.create ~insert_inv_prob:0 (Pi_pkt.Prng.create 1L) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inv prob 0 should raise"

let prop_insert_then_lookup =
  qtest "forced insert then lookup" gen_flow (fun f ->
      let e = mk ~capacity:4096 () in
      Emc.insert_forced e f 42;
      Emc.lookup e f = Some 42)

let suite =
  [ Alcotest.test_case "hit/miss" `Quick test_hit_miss;
    Alcotest.test_case "capacity power of two" `Quick test_capacity_pow2;
    Alcotest.test_case "exact match only" `Quick test_exact_match_only;
    Alcotest.test_case "collision evicts" `Quick test_eviction_on_collision;
    Alcotest.test_case "probabilistic insert" `Quick test_probabilistic_insert;
    Alcotest.test_case "insert_forced" `Quick test_insert_forced;
    Alcotest.test_case "insert_stored" `Quick test_insert_stored;
    Alcotest.test_case "invalidate_if" `Quick test_invalidate_if;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "reset stats" `Quick test_reset_stats;
    Alcotest.test_case "dead entry counts as miss" `Quick test_dead_entry_counts_as_miss;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    prop_insert_then_lookup ]
