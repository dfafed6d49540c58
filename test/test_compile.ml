open Pi_cms
open Pi_classifier
open Helpers

let test_range_prefixes_exact () =
  Alcotest.(check (list (pair int int))) "single port" [ (80, 16) ]
    (Compile.range_prefixes 80 80)

let test_range_prefixes_aligned () =
  Alcotest.(check (list (pair int int))) "aligned block" [ (1024, 6) ]
    (Compile.range_prefixes 1024 2047)

let test_range_prefixes_full () =
  Alcotest.(check (list (pair int int))) "all ports" [ (0, 0) ]
    (Compile.range_prefixes 0 65535)

let test_range_prefixes_invalid () =
  (match Compile.range_prefixes 10 5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "inverted range should raise");
  match Compile.range_prefixes 0 70000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range should raise"

let covers_range prefixes p =
  List.exists
    (fun (v, len) ->
      let shift = 16 - len in
      v lsr shift = p lsr shift)
    prefixes

let prop_range_cover =
  qtest ~count:300 "range prefixes cover exactly the range"
    QCheck2.Gen.(
      let* lo = int_range 0 65535 in
      let* hi = int_range lo 65535 in
      return (lo, hi))
    (fun (lo, hi) ->
      let ps = Compile.range_prefixes lo hi in
      (* Probe the edges and a few interior/exterior points. *)
      let inside = [ lo; hi; (lo + hi) / 2 ] in
      let outside =
        List.filter (fun p -> p >= 0 && p <= 65535) [ lo - 1; hi + 1 ]
      in
      List.for_all (fun p -> covers_range ps p) inside
      && List.for_all (fun p -> not (covers_range ps p)) outside)

let prop_range_disjoint =
  qtest ~count:200 "range prefixes are disjoint"
    QCheck2.Gen.(
      let* lo = int_range 0 65535 in
      let* hi = int_range lo 65535 in
      return (lo, hi))
    (fun (lo, hi) ->
      let ps = Compile.range_prefixes lo hi in
      let rec pairs = function
        | [] -> true
        | (v1, l1) :: rest ->
          List.for_all
            (fun (v2, l2) ->
              let l = min l1 l2 in
              let shift = 16 - l in
              v1 lsr shift <> v2 lsr shift)
            rest
          && pairs rest
      in
      pairs ps)

let test_proto_expansion () =
  (* A port filter without a protocol expands over TCP and UDP. *)
  let pats =
    Compile.patterns_of_entry (Acl.entry ~dst_port:(Acl.Port 80) ())
  in
  Alcotest.(check int) "two patterns" 2 (List.length pats);
  let protos =
    List.map (fun p -> Flow.ip_proto p.Pattern.key) pats |> List.sort compare
  in
  Alcotest.(check (list int)) "tcp+udp" [ 6; 17 ] protos

let test_icmp_ignores_ports () =
  let pats =
    Compile.patterns_of_entry
      (Acl.entry ~proto:Acl.Icmp ~dst_port:(Acl.Port 80) ())
  in
  Alcotest.(check int) "one pattern" 1 (List.length pats);
  match pats with
  | [ p ] ->
    Alcotest.(check int) "ports not matched" 0
      (Mask.get p.Pattern.mask Field.Tp_dst)
  | _ -> Alcotest.fail "unexpected"

let test_eth_type_always_pinned () =
  let pats = Compile.patterns_of_entry (Acl.entry ~src:(pfx "10.0.0.0/8") ()) in
  List.iter
    (fun p ->
      Alcotest.(check int) "ipv4 ethertype" 0x0800 (Flow.eth_type p.Pattern.key))
    pats

let test_compile_shape () =
  let acl =
    Acl.whitelist
      [ Acl.entry ~src:(pfx "10.0.0.10/32") ~proto:Acl.Udp
          ~dst_port:(Acl.Port 80) () ]
  in
  let rules = Compile.compile ~allow:(Pi_ovs.Action.Output 2) acl in
  (* 1 allow pattern + 1 catch-all. *)
  Alcotest.(check int) "two rules" 2 (List.length rules);
  let catch = List.nth rules 1 in
  Alcotest.(check int) "catch-all priority" Compile.default_priority
    catch.Rule.priority;
  Alcotest.(check action_t) "catch-all drops" Pi_ovs.Action.Drop catch.Rule.action

let test_compile_too_many_rules () =
  let entries = List.init 40000 (fun _ -> Acl.entry ()) in
  match Compile.compile ~allow:Pi_ovs.Action.Drop (Acl.whitelist entries) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "priority exhaustion should raise"

let test_scoping () =
  let acl = Acl.whitelist [ Acl.entry () ] in
  let rules =
    Compile.compile ~in_port:7 ~dst:(pfx "10.1.0.2/32")
      ~allow:(Pi_ovs.Action.Output 2) acl
  in
  List.iter
    (fun (r : Pi_ovs.Action.t Rule.t) ->
      Alcotest.(check int) "in_port pinned" 7 (Flow.in_port r.Rule.pattern.Pattern.key);
      Alcotest.(check ipv4_t) "dst pinned" (ip "10.1.0.2")
        (Flow.ip_dst r.Rule.pattern.Pattern.key))
    rules

(* The central compilation property: the flow rules implement exactly
   the ACL's reference semantics. *)
let gen_acl =
  let open QCheck2.Gen in
  let gen_port_match =
    oneof
      [ return Acl.Any_port;
        map (fun p -> Acl.Port p) (int_range 0 15);
        map2 (fun a b -> Acl.Port_range (min a b, max a b)) (int_range 0 15) (int_range 0 15) ]
  in
  let gen_entry =
    let* src = opt (map (fun (v, l) -> Pi_pkt.Ipv4_addr.Prefix.make (Int32.of_int v) l)
                     (pair (int_range 0 15) (int_range 28 32))) in
    let* proto = oneofl [ Acl.Any_proto; Acl.Tcp; Acl.Udp; Acl.Icmp ] in
    let* sport = gen_port_match in
    let* dport = gen_port_match in
    return (Acl.entry ?src ~proto ~src_port:sport ~dst_port:dport ())
  in
  let* entries = list_size (int_range 0 4) gen_entry in
  return (Acl.whitelist entries)

let gen_acl_flow =
  let open QCheck2.Gen in
  let* ip_src = map Int32.of_int (int_range 0 15) in
  let* proto = oneofl [ 1; 6; 17 ] in
  let* tp_src = int_range 0 15 in
  let* tp_dst = int_range 0 15 in
  return (Flow.make ~ip_src ~ip_proto:proto ~tp_src ~tp_dst ())

let prop_compile_oracle =
  qtest ~count:300 "compile ≡ Acl.eval"
    QCheck2.Gen.(pair gen_acl (list_size (return 25) gen_acl_flow))
    (fun (acl, flows) ->
      let cls = Tss.create () in
      List.iter (Tss.insert cls)
        (Compile.compile ~allow:(Pi_ovs.Action.Output 1) acl);
      List.for_all
        (fun f ->
          let expected =
            match Acl.eval acl (Acl.five_tuple_of_flow f) with
            | Acl.Allow -> Pi_ovs.Action.Output 1
            | Acl.Deny -> Pi_ovs.Action.Drop
          in
          match (tss_lookup cls f).rule with
          | Some r -> Pi_ovs.Action.equal r.Rule.action expected
          | None -> false)
        flows)

let suite =
  [ Alcotest.test_case "range: exact port" `Quick test_range_prefixes_exact;
    Alcotest.test_case "range: aligned block" `Quick test_range_prefixes_aligned;
    Alcotest.test_case "range: full space" `Quick test_range_prefixes_full;
    Alcotest.test_case "range: invalid" `Quick test_range_prefixes_invalid;
    prop_range_cover;
    prop_range_disjoint;
    Alcotest.test_case "protocol expansion" `Quick test_proto_expansion;
    Alcotest.test_case "icmp ignores ports" `Quick test_icmp_ignores_ports;
    Alcotest.test_case "eth_type pinned" `Quick test_eth_type_always_pinned;
    Alcotest.test_case "compile shape" `Quick test_compile_shape;
    Alcotest.test_case "priority exhaustion" `Quick test_compile_too_many_rules;
    Alcotest.test_case "in_port/dst scoping" `Quick test_scoping;
    prop_compile_oracle ]
