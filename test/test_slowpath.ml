open Pi_ovs
open Pi_classifier
open Helpers

let whitelist () =
  let sp = Slowpath.create () in
  Slowpath.install sp
    [ Rule.make ~priority:100
        ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
        ~action:(Action.Output 2) ();
      Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ];
  sp

let test_upcall_allow () =
  let sp = whitelist () in
  let v = Slowpath.upcall sp (Flow.make ~ip_src:(ip "10.0.0.10") ()) in
  Alcotest.(check action_t) "allow" (Action.Output 2) v.Slowpath.action;
  Alcotest.(check bool) "rule found" true v.Slowpath.rule_found

let test_upcall_deny_megaflow () =
  let sp = whitelist () in
  (* 11.0.0.10 first diverges from the whitelisted 10.0.0.10 at bit 8
     (00001010 vs 00001011), so the deny megaflow needs exactly 8 bits. *)
  let v = Slowpath.upcall sp (Flow.make ~ip_src:(ip "11.0.0.10") ()) in
  Alcotest.(check action_t) "deny" Action.Drop v.Slowpath.action;
  Alcotest.(check (option int)) "broad megaflow" (Some 8)
    (Mask.prefix_len v.Slowpath.megaflow Field.Ip_src);
  let v2 = Slowpath.upcall sp (Flow.make ~ip_src:(ip "130.0.0.10") ()) in
  Alcotest.(check (option int)) "MSB divergence needs 1 bit" (Some 1)
    (Mask.prefix_len v2.Slowpath.megaflow Field.Ip_src)

let test_table_miss_default_drop () =
  let sp = Slowpath.create () in
  let v = Slowpath.upcall sp (Flow.make ()) in
  Alcotest.(check action_t) "drop on empty table" Action.Drop v.Slowpath.action;
  Alcotest.(check bool) "no rule" false v.Slowpath.rule_found

let test_revision_bumps () =
  let sp = Slowpath.create () in
  Alcotest.(check int) "initial" 0 (Slowpath.revision sp);
  Slowpath.install sp [ Rule.make ~pattern:Pattern.any ~action:Action.Drop () ];
  Alcotest.(check int) "after install" 1 (Slowpath.revision sp);
  Slowpath.install sp [];
  Alcotest.(check int) "empty install is free" 1 (Slowpath.revision sp);
  ignore (Slowpath.remove sp (fun _ -> true));
  Alcotest.(check int) "after remove" 2 (Slowpath.revision sp);
  ignore (Slowpath.remove sp (fun _ -> true));
  Alcotest.(check int) "no-op remove is free" 2 (Slowpath.revision sp)

let test_counts () =
  let sp = whitelist () in
  Alcotest.(check int) "rules" 2 (Slowpath.n_rules sp);
  Alcotest.(check int) "subtables" 2 (Slowpath.n_subtables sp);
  Slowpath.clear sp;
  Alcotest.(check int) "cleared" 0 (Slowpath.n_rules sp)

(* [slowpath.mli]'s claim for {!Slowpath.upcall_batch}: over k flows it
   gives the verdicts of k sequential {!Slowpath.upcall} calls. The
   counts of those upcalls are the datapath's, checked in
   [test_counters]. *)
let prop_batch_equals_upcalls =
  let verdict_equal (a : Slowpath.verdict) (b : Slowpath.verdict) =
    Action.equal a.Slowpath.action b.Slowpath.action
    && Mask.equal a.Slowpath.megaflow b.Slowpath.megaflow
    && a.Slowpath.probes = b.Slowpath.probes
    && a.Slowpath.rule_found = b.Slowpath.rule_found
    && a.Slowpath.rule_seq = b.Slowpath.rule_seq
  in
  let to_action = function
    | "a" -> Action.Output 1
    | "b" -> Action.Output 2
    | _ -> Action.Drop
  in
  qtest ~count:200 "upcall_batch ≡ k upcalls (verdicts only)"
    QCheck2.Gen.(pair gen_rules (list_size (int_range 1 40) gen_small_flow))
    (fun (rules, flows) ->
      let rules =
        List.map
          (fun (r : string Rule.t) ->
            Rule.make ~priority:r.Rule.priority ~pattern:r.Rule.pattern
              ~action:(to_action r.Rule.action) ())
          rules
      in
      let make () =
        let sp = Slowpath.create () in
        Slowpath.install sp rules;
        sp
      in
      let flows = Array.of_list flows in
      let k = Array.length flows in
      let singles = Array.map (Slowpath.upcall (make ())) flows in
      let out = Array.make k Slowpath.no_verdict in
      Slowpath.upcall_batch (make ()) flows ~idx:(Array.init k Fun.id) ~n:k
        ~out;
      Array.for_all2 verdict_equal singles out)

let suite =
  [ Alcotest.test_case "upcall allow" `Quick test_upcall_allow;
    Alcotest.test_case "upcall deny megaflow" `Quick test_upcall_deny_megaflow;
    Alcotest.test_case "table miss drops" `Quick test_table_miss_default_drop;
    Alcotest.test_case "revision bumps" `Quick test_revision_bumps;
    Alcotest.test_case "counts" `Quick test_counts;
    prop_batch_equals_upcalls ]
