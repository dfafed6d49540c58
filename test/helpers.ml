(* Shared alcotest testables, qcheck generators and builders. *)

open Pi_classifier

let flow_t = Alcotest.testable Flow.pp Flow.equal
let mask_t = Alcotest.testable Mask.pp Mask.equal
let pattern_t = Alcotest.testable Pattern.pp Pattern.equal
let action_t = Alcotest.testable Pi_ovs.Action.pp Pi_ovs.Action.equal
let ipv4_t = Alcotest.testable Pi_pkt.Ipv4_addr.pp Pi_pkt.Ipv4_addr.equal
let prefix_t =
  Alcotest.testable Pi_pkt.Ipv4_addr.Prefix.pp Pi_pkt.Ipv4_addr.Prefix.equal
let packet_t = Alcotest.testable Pi_pkt.Packet.pp Pi_pkt.Packet.equal

let ip = Pi_pkt.Ipv4_addr.of_string
let pfx = Pi_pkt.Ipv4_addr.Prefix.of_string

(* QCheck generators *)

let gen_ipv4 = QCheck2.Gen.map Int32.of_int QCheck2.Gen.int
let gen_port = QCheck2.Gen.int_range 0 65535
let gen_proto =
  QCheck2.Gen.oneofl
    [ Pi_pkt.Ipv4.proto_tcp; Pi_pkt.Ipv4.proto_udp; Pi_pkt.Ipv4.proto_icmp ]

let gen_flow =
  let open QCheck2.Gen in
  let* in_port = int_range 0 15 in
  let* ip_src = gen_ipv4 in
  let* ip_dst = gen_ipv4 in
  let* ip_proto = gen_proto in
  let* tp_src = gen_port in
  let* tp_dst = gen_port in
  return (Flow.make ~in_port ~ip_src ~ip_dst ~ip_proto ~tp_src ~tp_dst ())

(* A flow "near" interesting values: small fields so random rule sets
   and flows actually collide. *)
let gen_small_flow =
  let open QCheck2.Gen in
  let* ip_src = map Int32.of_int (int_range 0 15) in
  let* ip_dst = map Int32.of_int (int_range 0 15) in
  let* ip_proto = oneofl [ 6; 17 ] in
  let* tp_src = int_range 0 7 in
  let* tp_dst = int_range 0 7 in
  return (Flow.make ~ip_src ~ip_dst ~ip_proto ~tp_src ~tp_dst ())

let gen_small_pattern =
  let open QCheck2.Gen in
  let constrain pat =
    let* which = int_range 0 4 in
    let* exact = bool in
    match which with
    | 0 ->
      let* v = int_range 0 15 in
      let* len = if exact then return 32 else int_range 0 32 in
      return (Pattern.with_prefix pat Field.Ip_src ~len v)
    | 1 ->
      let* v = int_range 0 15 in
      let* len = if exact then return 32 else int_range 0 32 in
      return (Pattern.with_prefix pat Field.Ip_dst ~len v)
    | 2 ->
      let* v = oneofl [ 6; 17 ] in
      return (Pattern.with_exact pat Field.Ip_proto v)
    | 3 ->
      let* v = int_range 0 7 in
      let* len = if exact then return 16 else int_range 0 16 in
      return (Pattern.with_prefix pat Field.Tp_src ~len v)
    | _ ->
      let* v = int_range 0 7 in
      let* len = if exact then return 16 else int_range 0 16 in
      return (Pattern.with_prefix pat Field.Tp_dst ~len v)
  in
  let* n = int_range 0 3 in
  let rec go pat k = if k = 0 then return pat else bind (constrain pat) (fun p -> go p (k - 1)) in
  go Pattern.any n

let gen_rules =
  let open QCheck2.Gen in
  let gen_rule =
    let* pattern = gen_small_pattern in
    let* priority = int_range 0 8 in
    let* action = oneofl [ "a"; "b"; "c" ] in
    return (Rule.make ~priority ~pattern ~action ())
  in
  list_size (int_range 1 12) gen_rule

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

(* Tiny substring search (no astring dependency in tests). *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

(* A one-packet classifier lookup: {!Pi_classifier.Tss.find_wc_batch}
   over a batch of one, read back as the slot's best rule, megaflow mask
   and probe count. *)
type 'a tss_result = {
  rule : 'a Rule.t option;
  megaflow : Mask.t;
  probes : int;
}

let tss_lookup cls flow =
  let bs = Tss.batch ~capacity:1 in
  Tss.find_wc_batch cls bs [| flow |] ~idx:[| 0 |] ~n:1;
  { rule = Tss.batch_rule bs 0; megaflow = Tss.batch_megaflow bs 0;
    probes = Tss.batch_probes bs 0 }

(* A one-packet megaflow lookup: {!Pi_ovs.Megaflow.walk_batch} over a
   burst of one, then its commit — hinted through [cache] when given.
   The probes charged land in [stats]. *)
let mf_lookup ?(stats = Pi_ovs.Megaflow.lookup_stats ()) ?cache mf flow ~now
    ~pkt_len =
  let out_entry = [| None |] and out_probes = [| 0 |] and out_tbl = [| 0 |] in
  Pi_ovs.Megaflow.walk_batch mf [| flow |] ~idx:[| 0 |] ~n:1 ~out_entry
    ~out_probes ~out_tbl;
  let probes = out_probes.(0) and tbl = out_tbl.(0) in
  match cache with
  | Some cache ->
    Pi_ovs.Megaflow.commit_walk_hinted mf stats cache flow out_entry.(0) ~now
      ~pkt_len ~probes ~tbl
  | None ->
    Pi_ovs.Megaflow.commit_walk mf stats out_entry.(0) ~now ~pkt_len ~probes
      ~tbl;
    out_entry.(0)
