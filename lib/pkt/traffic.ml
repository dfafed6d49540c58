type flow_spec = {
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  proto : int;
  src_port : int;
  dst_port : int;
  pkt_len : int;
}

let pp_flow ppf f =
  Format.fprintf ppf "%s %a:%d -> %a:%d"
    (if f.proto = Ipv4.proto_tcp then "tcp" else if f.proto = Ipv4.proto_udp then "udp" else string_of_int f.proto)
    Ipv4_addr.pp f.src f.src_port Ipv4_addr.pp f.dst f.dst_port

let packet_of_flow f =
  (* pkt_len covers Ethernet + IPv4 + L4 headers + payload. *)
  let l4_size = if f.proto = Ipv4.proto_tcp then Tcp.size else Udp.size in
  let payload_len = max 0 (f.pkt_len - Ethernet.size - Ipv4.size - l4_size) in
  if f.proto = Ipv4.proto_tcp then
    Packet.tcp ~payload_len ~src:f.src ~dst:f.dst ~src_port:f.src_port
      ~dst_port:f.dst_port ()
  else
    Packet.udp ~payload_len ~src:f.src ~dst:f.dst ~src_port:f.src_port
      ~dst_port:f.dst_port ()

module Flow_pool = struct
  type t = {
    mutable flows : flow_spec array;
    cdf : float array;  (* popularity CDF, fixed over churn *)
    src_net : Ipv4_addr.Prefix.t;
    dst_net : Ipv4_addr.Prefix.t;
    proto : int;
    dst_ports : int array;
    pkt_len : int;
  }

  let random_addr rng net =
    let count = Ipv4_addr.Prefix.host_count net in
    if Int64.compare count 1L <= 0 then net.Ipv4_addr.Prefix.base
    else
      let i = Int64.of_int (Prng.int rng (Int64.to_int (Int64.min count 0x3FFFFFFFL))) in
      Ipv4_addr.Prefix.nth net i

  let random_flow rng t =
    { src = random_addr rng t.src_net;
      dst = random_addr rng t.dst_net;
      proto = t.proto;
      src_port = 1024 + Prng.int rng (65536 - 1024);
      dst_port = t.dst_ports.(Prng.int rng (Array.length t.dst_ports));
      pkt_len = t.pkt_len }

  let create rng ~n_flows ~src_net ~dst_net ?(proto = Ipv4.proto_tcp)
      ?(dst_ports = [| 80; 443; 8080; 5001 |]) ?(pkt_len = 1500)
      ?(zipf_s = 1.0) () =
    if n_flows <= 0 then invalid_arg "Flow_pool.create: n_flows";
    let weights =
      Array.init n_flows (fun i -> 1. /. Float.pow (float_of_int (i + 1)) zipf_s)
    in
    let total = Array.fold_left ( +. ) 0. weights in
    let cdf = Array.make n_flows 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    cdf.(n_flows - 1) <- 1.;
    let t =
      { flows = [||]; cdf; src_net; dst_net; proto; dst_ports; pkt_len }
    in
    t.flows <- Array.init n_flows (fun _ -> random_flow rng t);
    t

  let size t = Array.length t.flows

  let nth t i = t.flows.(i)

  let sample_index t rng =
    (* [Prng.float]'s draw, scaled here: a float returned across the
       module boundary would be boxed on every draw. *)
    let u = Float.of_int (Prng.bits53 rng) *. 0x1.0p-53 in
    (* Binary search for the first CDF entry >= u. *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo

  let sample t rng = t.flows.(sample_index t rng)

  let churn t rng ~fraction =
    let n = Array.length t.flows in
    let k = int_of_float (fraction *. float_of_int n +. 0.5) in
    let k = min n (max 0 k) in
    for _ = 1 to k do
      let i = Prng.int rng n in
      t.flows.(i) <- random_flow rng t
    done;
    k

  let iter f t = Array.iter f t.flows
end

module Schedule = struct
  let cbr ~rate_pps ~start ~stop =
    if rate_pps <= 0. then Seq.empty
    else begin
      let period = 1. /. rate_pps in
      (* Index-based timestamps avoid accumulation error at the stop
         boundary. *)
      let rec go i () =
        let t = start +. (float_of_int i *. period) in
        if t >= stop then Seq.Nil else Seq.Cons (t, go (i + 1))
      in
      go 0
    end

  let poisson rng ~rate_pps ~start ~stop =
    if rate_pps <= 0. then Seq.empty
    else begin
      let mean = 1. /. rate_pps in
      let rec go t () =
        let t = t +. Prng.exponential rng ~mean in
        if t >= stop then Seq.Nil else Seq.Cons (t, go t)
      in
      go start
    end

  let count s = Seq.fold_left (fun acc _ -> acc + 1) 0 s
end

let rate_for_bandwidth ~bits_per_sec ~pkt_len =
  if pkt_len <= 0 then invalid_arg "Traffic.rate_for_bandwidth";
  bits_per_sec /. (8. *. float_of_int pkt_len)
