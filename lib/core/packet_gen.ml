open Pi_classifier

type t = {
  spec : Policy_gen.spec;
  dst : Pi_pkt.Ipv4_addr.t;
  pkt_len : int;
}

let make ?(pkt_len = 100) ~spec ~dst () = { spec; dst; pkt_len }

let divergent_value ~width ~allowed ~depth ~rand =
  if depth < 1 || depth > width then invalid_arg "Packet_gen.divergent_value";
  let full = (1 lsl width) - 1 in
  let keep = depth - 1 in
  (* high [keep] bits from [allowed], flipped bit at position [depth],
     low bits from [rand] *)
  let high_mask = if keep = 0 then 0 else ((-1) lsl (width - keep)) land full in
  let flip_bit = 1 lsl (width - depth) in
  let low_mask = flip_bit - 1 in
  let flipped = (allowed land flip_bit) lxor flip_bit in
  (allowed land high_mask) lor flipped lor (rand land low_mask)

let proto_number spec =
  match spec.Policy_gen.proto with
  | Pi_cms.Acl.Tcp -> Pi_pkt.Ipv4.proto_tcp
  | Pi_cms.Acl.Udp -> Pi_pkt.Ipv4.proto_udp
  | Pi_cms.Acl.Icmp | Pi_cms.Acl.Any_proto -> Pi_pkt.Ipv4.proto_udp

(* The allowed (exact) value of each targeted field. *)
let allowed_value spec f =
  match f with
  | Field.Ip_src -> Int32.to_int spec.Policy_gen.allow_src land 0xFFFFFFFF
  | Field.Tp_src -> spec.Policy_gen.allow_sport
  | Field.Tp_dst -> spec.Policy_gen.allow_dport
  | _ -> invalid_arg "Packet_gen.allowed_value: unsupported field"

let base_flow t =
  Flow.make ~ip_dst:t.dst ~ip_proto:(proto_number t.spec)
    ~ip_src:t.spec.Policy_gen.allow_src
    ~tp_src:t.spec.Policy_gen.allow_sport
    ~tp_dst:t.spec.Policy_gen.allow_dport ()

let allow_flow t = base_flow t

(* One flow per depth tuple of the targeted fields — the cartesian
   product of [1..width f] per field, in decreasing lexicographic order,
   the first field outermost. Each flow draws one random tail per field,
   in field order, and is built with one array copy of the base flow. *)
let flows ?(seed = 0xC0FFEEL) t =
  let rng = Pi_pkt.Prng.create seed in
  let fields = Array.of_list (Variant.fields t.spec.Policy_gen.variant) in
  let n = Array.length fields in
  let widths = Array.map Field.width fields in
  let allowed = Array.map (allowed_value t.spec) fields in
  let base = Flow.unsafe_fields (base_flow t) in
  let depth = Array.make n 0 in
  let out = ref [] in
  let rec enumerate k =
    if k = n then begin
      let a = Array.copy base in
      for i = 0 to n - 1 do
        let v =
          (* [Int64.to_int] keeps the low 62 bits and only the low
             [width − depth] bits are used, so the randomised tails are
             bit-identical to the previous int64 implementation. *)
          divergent_value ~width:widths.(i) ~allowed:allowed.(i)
            ~depth:depth.(i)
            ~rand:(Int64.to_int (Pi_pkt.Prng.int64 rng) land max_int)
        in
        a.(Field.index fields.(i)) <- v land ((1 lsl widths.(i)) - 1)
      done;
      out := Flow.unsafe_of_fields a :: !out
    end
    else
      for d = widths.(k) downto 1 do
        depth.(k) <- d;
        enumerate (k + 1)
      done
  in
  enumerate 0;
  List.rev !out

let packet_of_flow t flow =
  let payload = max 0 (t.pkt_len - Pi_pkt.Ethernet.size - Pi_pkt.Ipv4.size) in
  if Flow.ip_proto flow = Pi_pkt.Ipv4.proto_tcp then
    Pi_pkt.Packet.tcp
      ~payload_len:(max 0 (payload - Pi_pkt.Tcp.size))
      ~src:(Flow.ip_src flow) ~dst:(Flow.ip_dst flow)
      ~src_port:(Flow.tp_src flow) ~dst_port:(Flow.tp_dst flow) ()
  else
    Pi_pkt.Packet.udp
      ~payload_len:(max 0 (payload - Pi_pkt.Udp.size))
      ~src:(Flow.ip_src flow) ~dst:(Flow.ip_dst flow)
      ~src_port:(Flow.tp_src flow) ~dst_port:(Flow.tp_dst flow) ()

let packets ?seed t = List.map (packet_of_flow t) (flows ?seed t)

let to_pcap ?seed ?(rate_pps = 2000.) t =
  let period = 1. /. rate_pps in
  List.mapi
    (fun i p -> (float_of_int i *. period, p))
    (packets ?seed t)
  |> Pi_pkt.Pcap.of_packets
