open Policy_injection
open Pi_classifier
open Helpers

let spec variant =
  Policy_gen.default_spec ~variant ~allow_src:(ip "10.0.0.10") ()

let gen variant =
  Packet_gen.make ~spec:(spec variant) ~dst:(ip "10.1.0.3") ()

let test_divergent_value_basics () =
  (* width 8, allowed 00001010 *)
  let allowed = 0b00001010 in
  for depth = 1 to 8 do
    let v =
      Packet_gen.divergent_value ~width:8 ~allowed ~depth ~rand:0xFF
    in
    (* Shares depth-1 leading bits... *)
    let shift = 8 - (depth - 1) in
    if depth > 1 then begin
      let hi x = x lsr shift in
      Alcotest.(check int)
        (Printf.sprintf "depth %d: shares prefix" depth)
        (hi allowed) (hi v)
    end;
    (* ...and differs exactly at bit [depth]. *)
    let bit x = (x lsr (8 - depth)) land 1 in
    Alcotest.(check bool)
      (Printf.sprintf "depth %d: flips bit" depth)
      true
      (bit allowed <> bit v)
  done

let test_divergent_value_invalid () =
  match Packet_gen.divergent_value ~width:8 ~allowed:0 ~depth:9 ~rand:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "depth beyond width should raise"

let prop_divergent_never_allowed =
  qtest "divergent value never equals allowed"
    QCheck2.Gen.(
      let* allowed = int_range 0 65535 in
      let* depth = int_range 1 16 in
      let* rand = int_range 0 65535 in
      return (allowed, depth, rand))
    (fun (allowed, depth, rand) ->
      let v =
        Packet_gen.divergent_value ~width:16 ~allowed ~depth ~rand
      in
      v <> allowed)

let test_flow_counts () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Variant.name v)
        (Predict.covert_packets v)
        (List.length (Packet_gen.flows (gen v))))
    [ Variant.Src_only; Variant.Src_dport ]

let test_flows_deterministic () =
  let a = Packet_gen.flows ~seed:9L (gen Variant.Src_dport) in
  let b = Packet_gen.flows ~seed:9L (gen Variant.Src_dport) in
  Alcotest.(check bool) "same seed, same flows" true
    (List.for_all2 Flow.equal a b)

(* The covert sequence spelled out: every depth tuple (first field
   outermost, deepest first), each flow folding one divergent value per
   field into the base flow, one random draw per field in field order. *)
let reference_flows ~seed variant =
  let rng = Pi_pkt.Prng.create seed in
  let s = spec variant in
  let allowed = function
    | Field.Ip_src -> Int32.to_int s.Policy_gen.allow_src land 0xFFFFFFFF
    | Field.Tp_src -> s.Policy_gen.allow_sport
    | Field.Tp_dst -> s.Policy_gen.allow_dport
    | _ -> assert false
  in
  let tuples =
    List.fold_left
      (fun acc f ->
        List.concat_map
          (fun partial ->
            List.init (Field.width f) (fun d -> partial @ [ (f, Field.width f - d) ]))
          acc)
      [ [] ] (Variant.fields variant)
  in
  List.map
    (fun tuple ->
      List.fold_left
        (fun flow (f, depth) ->
          let rand = Int64.to_int (Pi_pkt.Prng.int64 rng) land max_int in
          Flow.with_field flow f
            (Packet_gen.divergent_value ~width:(Field.width f)
               ~allowed:(allowed f) ~depth ~rand))
        (Packet_gen.allow_flow (gen variant)) tuple)
    tuples

let test_flows_reference () =
  List.iter
    (fun v ->
      List.iter
        (fun seed ->
          Alcotest.(check bool) (Variant.name v) true
            (List.equal Flow.equal (reference_flows ~seed v)
               (Packet_gen.flows ~seed (gen v))))
        [ 1L; 0xC0FFEEL ])
    Variant.all

let test_flows_all_denied () =
  let acl = Policy_gen.acl (spec Variant.Src_dport) in
  List.iter
    (fun f ->
      if Pi_cms.Acl.eval acl (Pi_cms.Acl.five_tuple_of_flow f) <> Pi_cms.Acl.Deny
      then Alcotest.fail "covert packet would be allowed (not covert)")
    (Packet_gen.flows (gen Variant.Src_dport))

let test_allow_flow_allowed () =
  let acl = Policy_gen.acl (spec Variant.Src_sport_dport) in
  let f = Packet_gen.allow_flow (gen Variant.Src_sport_dport) in
  Alcotest.(check bool) "allow flow passes" true
    (Pi_cms.Acl.eval acl (Pi_cms.Acl.five_tuple_of_flow f) = Pi_cms.Acl.Allow)

(* End-to-end: the covert sequence materialises exactly the predicted
   number of megaflow masks, for every variant. *)
let masks_through_datapath variant =
  let dp = Pi_ovs.Datapath.create (Pi_pkt.Prng.create 2L) () in
  Pi_ovs.Datapath.install_rules dp
    (Pi_cms.Compile.compile
       ~dst:(Pi_pkt.Ipv4_addr.Prefix.make (ip "10.1.0.3") 32)
       ~allow:(Pi_ovs.Action.Output 2)
       (Policy_gen.acl (spec variant)));
  List.iter
    (fun f -> ignore (Pi_ovs.Datapath.process dp ~now:0. f ~pkt_len:100))
    (Packet_gen.flows (gen variant));
  Pi_ovs.Datapath.n_masks dp

let test_masks_src_only () =
  Alcotest.(check int) "32" (Predict.variant_masks Variant.Src_only)
    (masks_through_datapath Variant.Src_only)

let test_masks_src_dport () =
  Alcotest.(check int) "512" (Predict.variant_masks Variant.Src_dport)
    (masks_through_datapath Variant.Src_dport)

let test_masks_full () =
  Alcotest.(check int) "8192" (Predict.variant_masks Variant.Src_sport_dport)
    (masks_through_datapath Variant.Src_sport_dport)

let test_refresh_hits_same_megaflows () =
  (* A second round (different seed → different low bits) must not
     create new megaflows: same masks, same masked keys. *)
  let dp = Pi_ovs.Datapath.create (Pi_pkt.Prng.create 2L) () in
  Pi_ovs.Datapath.install_rules dp
    (Pi_cms.Compile.compile
       ~dst:(Pi_pkt.Ipv4_addr.Prefix.make (ip "10.1.0.3") 32)
       ~allow:(Pi_ovs.Action.Output 2)
       (Policy_gen.acl (spec Variant.Src_dport)));
  let g = gen Variant.Src_dport in
  List.iter
    (fun f -> ignore (Pi_ovs.Datapath.process dp ~now:0. f ~pkt_len:100))
    (Packet_gen.flows ~seed:1L g);
  let upcalls_before = Pi_ovs.Datapath.n_upcalls dp in
  let entries_before = Pi_ovs.Datapath.n_megaflows dp in
  List.iter
    (fun f -> ignore (Pi_ovs.Datapath.process dp ~now:1. f ~pkt_len:100))
    (Packet_gen.flows ~seed:2L g);
  Alcotest.(check int) "no new upcalls" upcalls_before
    (Pi_ovs.Datapath.n_upcalls dp);
  Alcotest.(check int) "no new megaflows" entries_before
    (Pi_ovs.Datapath.n_megaflows dp)

let test_packets_parse () =
  List.iter
    (fun p ->
      match Pi_pkt.Packet.parse (Pi_pkt.Packet.serialize p) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    (Packet_gen.packets (gen Variant.Src_only))

let test_packets_size () =
  List.iter
    (fun p ->
      Alcotest.(check int) "covert frame size" 100 (Pi_pkt.Packet.size p))
    (Packet_gen.packets (gen Variant.Src_only))

let test_pcap_export () =
  let records = Packet_gen.to_pcap ~rate_pps:1000. (gen Variant.Src_only) in
  Alcotest.(check int) "one record per flow" 32 (List.length records);
  match Pi_pkt.Pcap.of_bytes (Pi_pkt.Pcap.to_bytes records) with
  | Ok rs -> Alcotest.(check int) "roundtrips" 32 (List.length rs)
  | Error e -> Alcotest.fail e

let suite =
  [ Alcotest.test_case "divergent_value bit structure" `Quick test_divergent_value_basics;
    Alcotest.test_case "divergent_value invalid depth" `Quick test_divergent_value_invalid;
    prop_divergent_never_allowed;
    Alcotest.test_case "flow counts = prediction" `Quick test_flow_counts;
    Alcotest.test_case "deterministic flows" `Quick test_flows_deterministic;
    Alcotest.test_case "flows = reference sequence" `Quick test_flows_reference;
    Alcotest.test_case "all covert flows denied" `Quick test_flows_all_denied;
    Alcotest.test_case "allow flow allowed" `Quick test_allow_flow_allowed;
    Alcotest.test_case "datapath masks: src-only = 32" `Quick test_masks_src_only;
    Alcotest.test_case "datapath masks: src+dport = 512" `Quick test_masks_src_dport;
    Alcotest.test_case "datapath masks: full = 8192" `Slow test_masks_full;
    Alcotest.test_case "refresh reuses megaflows" `Quick test_refresh_hits_same_megaflows;
    Alcotest.test_case "covert packets parse" `Quick test_packets_parse;
    Alcotest.test_case "covert frame size" `Quick test_packets_size;
    Alcotest.test_case "pcap export" `Quick test_pcap_export ]
