(* Cross-cutting edge cases that don't belong to one module's suite. *)

open Pi_classifier
open Helpers

(* --- Rule precedence laws --- *)

let gen_rule =
  QCheck2.Gen.(
    let* priority = int_range 0 5 in
    return (Rule.make ~priority ~pattern:Pattern.any ~action:() ()))

let prop_precedence_total_order =
  qtest "precedence is a strict total order"
    QCheck2.Gen.(triple gen_rule gen_rule gen_rule)
    (fun (a, b, c) ->
      let lt x y = Rule.compare_precedence x y < 0 in
      (* antisymmetry on distinct rules (seq numbers are unique) *)
      (lt a b <> lt b a || Rule.compare_precedence a b = 0)
      (* transitivity *)
      && ((not (lt a b && lt b c)) || lt a c))

let prop_wins_consistent =
  qtest "wins agrees with compare" QCheck2.Gen.(pair gen_rule gen_rule)
    (fun (a, b) -> Rule.wins a b = (Rule.compare_precedence a b < 0))

(* --- Mask.Builder --- *)

let test_builder_accumulates () =
  let b = Mask.Builder.create () in
  Mask.Builder.add_prefix b Field.Ip_src 8;
  Mask.Builder.add_exact b Field.Tp_dst;
  Mask.Builder.add_mask b (Mask.with_prefix Mask.empty Field.Ip_src 16);
  let m = Mask.Builder.freeze b in
  Alcotest.(check (option int)) "widest prefix wins" (Some 16)
    (Mask.prefix_len m Field.Ip_src);
  Alcotest.(check (option int)) "exact port" (Some 16)
    (Mask.prefix_len m Field.Tp_dst)

let test_builder_freeze_isolated () =
  let b = Mask.Builder.create () in
  Mask.Builder.add_exact b Field.Ip_src;
  let m1 = Mask.Builder.freeze b in
  Mask.Builder.add_exact b Field.Tp_dst;
  Alcotest.(check int) "frozen mask unaffected by later adds" 0
    (Mask.get m1 Field.Tp_dst)

(* --- Trie at the full immediate-int width --- *)

let test_trie_width_max () =
  let w = 62 in
  let top = 1 lsl (w - 1) in
  let t = Trie.create ~width:w in
  Trie.insert t ~value:top ~len:w;  (* top bit set *)
  Alcotest.(check bool) "member" true (Trie.mem t ~value:top ~len:w);
  let r = Trie.lookup t top in
  Alcotest.(check int) "full match" w (Trie.longest_match r);
  let r' = Trie.lookup t 0 in
  Alcotest.(check int) "MSB divergence" 1 r'.Trie.checked;
  Alcotest.(check int) "one complement prefix per depth" w
    (List.length (Trie.complement t))

let trie_width_cases =
  [ check_raises_invalid "trie width 0" (fun () -> Trie.create ~width:0);
    check_raises_invalid "trie width 63" (fun () -> Trie.create ~width:63) ]

(* --- Compile: entry-level dst narrows the policy scope --- *)

let test_compile_entry_dst_override () =
  let acl =
    Pi_cms.Acl.whitelist [ Pi_cms.Acl.entry ~dst:(pfx "10.1.0.2/32") () ]
  in
  let rules =
    Pi_cms.Compile.compile ~dst:(pfx "10.1.0.0/24")
      ~allow:(Pi_ovs.Action.Output 1) acl
  in
  match rules with
  | [ allow_rule; catch_all ] ->
    Alcotest.(check ipv4_t) "entry dst wins inside the scope"
      (ip "10.1.0.2")
      (Flow.ip_dst allow_rule.Rule.pattern.Pattern.key);
    Alcotest.(check (option int)) "catch-all keeps policy scope" (Some 24)
      (Mask.prefix_len catch_all.Rule.pattern.Pattern.mask Field.Ip_dst)
  | l -> Alcotest.failf "expected 2 rules, got %d" (List.length l)

let test_compile_priorities_descend () =
  let acl =
    Pi_cms.Acl.whitelist
      [ Pi_cms.Acl.entry ~src:(pfx "10.0.0.0/8") ();
        Pi_cms.Acl.entry ~src:(pfx "11.0.0.0/8") () ]
  in
  let rules = Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 1) acl in
  let prios = List.map (fun r -> r.Rule.priority) rules in
  Alcotest.(check (list int)) "descending, catch-all last"
    [ Pi_cms.Compile.base_priority; Pi_cms.Compile.base_priority - 1;
      Pi_cms.Compile.default_priority ]
    prios

(* --- Traffic pool corner cases --- *)

let test_flow_pool_host_net () =
  let rng = Pi_pkt.Prng.create 6L in
  let pool =
    Pi_pkt.Traffic.Flow_pool.create rng ~n_flows:10
      ~src_net:(pfx "10.0.0.7/32") ~dst_net:(pfx "10.1.0.2/32") ()
  in
  Pi_pkt.Traffic.Flow_pool.iter
    (fun f ->
      Alcotest.(check ipv4_t) "host net pins the source" (ip "10.0.0.7")
        f.Pi_pkt.Traffic.src)
    pool

(* --- K8s block_prefixes cover property --- *)

let prop_block_prefixes_cover =
  qtest ~count:200 "ipBlock except semantics"
    QCheck2.Gen.(
      let* cidr_len = int_range 0 16 in
      let* base = map Int32.of_int int in
      let cidr = Pi_pkt.Ipv4_addr.Prefix.make base cidr_len in
      let* except_lens = list_size (int_range 0 3) (int_range cidr_len 32) in
      let* probes = list_size (return 20) (map Int32.of_int int) in
      return (cidr, except_lens, probes))
    (fun (cidr, except_lens, probes) ->
      (* Build excepts inside the cidr. *)
      let except =
        List.mapi
          (fun i len ->
            Pi_pkt.Ipv4_addr.Prefix.make
              (Pi_pkt.Ipv4_addr.add cidr.Pi_pkt.Ipv4_addr.Prefix.base (i * 7))
              len)
          except_lens
      in
      let block = { Pi_cms.K8s_policy.cidr; except } in
      let cover =
        List.map
          (fun (v, l) -> Pi_pkt.Ipv4_addr.Prefix.make v l)
          (Pi_cms.K8s_policy.block_prefixes block)
      in
      List.for_all
        (fun a ->
          (* Clamp the probe into the cidr so it is informative. *)
          let a =
            Int32.logor cidr.Pi_pkt.Ipv4_addr.Prefix.base
              (Int32.logand a
                 (Int32.lognot (Pi_pkt.Ipv4_addr.mask_of_len cidr.Pi_pkt.Ipv4_addr.Prefix.len)))
          in
          let in_cover = List.exists (Pi_pkt.Ipv4_addr.Prefix.mem a) cover in
          let in_except = List.exists (Pi_pkt.Ipv4_addr.Prefix.mem a) except in
          in_cover = not in_except)
        probes)

(* --- Campaign pacing gap --- *)

let test_campaign_even_pacing () =
  let gen =
    Policy_injection.Packet_gen.make
      ~spec:(Policy_injection.Policy_gen.default_spec
               ~variant:Policy_injection.Variant.Src_only
               ~allow_src:(ip "10.0.0.10") ())
      ~dst:(ip "10.1.0.3") ()
  in
  let c =
    Policy_injection.Campaign.make ~refresh_period:4. ~gen ~start:0. ~stop:4. ()
  in
  let times = List.map fst (List.of_seq (Policy_injection.Campaign.events c)) in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g ->
      if abs_float (g -. (4. /. 32.)) > 1e-9 then
        Alcotest.failf "uneven pacing: gap %f" g)
    (gaps times)

let suite =
  [ prop_precedence_total_order;
    prop_wins_consistent;
    Alcotest.test_case "mask builder accumulates" `Quick test_builder_accumulates;
    Alcotest.test_case "mask builder freeze isolation" `Quick test_builder_freeze_isolated;
    Alcotest.test_case "trie at max width" `Quick test_trie_width_max;
  ]
  @ trie_width_cases
  @ [
    Alcotest.test_case "compile: entry dst override" `Quick test_compile_entry_dst_override;
    Alcotest.test_case "compile: priorities descend" `Quick test_compile_priorities_descend;
    Alcotest.test_case "flow pool host net" `Quick test_flow_pool_host_net;
    prop_block_prefixes_cover;
    Alcotest.test_case "campaign even pacing" `Quick test_campaign_even_pacing ]
