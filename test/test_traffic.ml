open Pi_pkt
open Helpers

let mk_pool ?(n = 100) seed =
  let rng = Prng.create seed in
  Traffic.Flow_pool.create rng ~n_flows:n ~src_net:(pfx "10.0.0.0/8")
    ~dst_net:(pfx "10.1.0.2/32") ()

let test_pool_size () =
  Alcotest.(check int) "size" 100 (Traffic.Flow_pool.size (mk_pool 1L))

let test_pool_deterministic () =
  let a = mk_pool 5L and b = mk_pool 5L in
  for i = 0 to 99 do
    let fa = Traffic.Flow_pool.nth a i and fb = Traffic.Flow_pool.nth b i in
    if fa <> fb then Alcotest.fail "pools differ for same seed"
  done

let test_pool_nets () =
  let pool = mk_pool 2L in
  Traffic.Flow_pool.iter
    (fun f ->
      if not (Ipv4_addr.Prefix.mem f.Traffic.src (pfx "10.0.0.0/8")) then
        Alcotest.fail "src outside net";
      if not (Ipv4_addr.equal f.Traffic.dst (ip "10.1.0.2")) then
        Alcotest.fail "dst outside net";
      if f.Traffic.src_port < 1024 || f.Traffic.src_port > 65535 then
        Alcotest.fail "bad src port")
    pool

let test_pool_sample_zipf () =
  (* With s=1, flow 0 must be sampled much more often than flow 99. *)
  let rng = Prng.create 3L in
  let pool =
    Traffic.Flow_pool.create rng ~n_flows:100 ~src_net:(pfx "10.0.0.0/8")
      ~dst_net:(pfx "10.1.0.2/32") ~zipf_s:1.0 ()
  in
  let first = Traffic.Flow_pool.nth pool 0 in
  let hits = ref 0 in
  for _ = 1 to 2000 do
    if Traffic.Flow_pool.sample pool rng = first then incr hits
  done;
  (* expected ~ 2000 / H(100) ≈ 385 *)
  if !hits < 200 then Alcotest.failf "zipf head too cold: %d" !hits

let test_sample_index () =
  (* [sample_index] makes the same PRNG draws as [sample] and names the
     entry [sample] returns: two generators from one seed stay in step. *)
  let pool = mk_pool 6L in
  let a = Prng.create 11L and b = Prng.create 11L in
  for k = 1 to 1000 do
    let spec = Traffic.Flow_pool.sample pool a in
    let i = Traffic.Flow_pool.sample_index pool b in
    if Traffic.Flow_pool.nth pool i != spec then
      Alcotest.failf "draw %d: index %d is not the sampled entry" k i
  done;
  Alcotest.(check int) "generators still in step" (Prng.int a 1_000_000)
    (Prng.int b 1_000_000)

(* The fig3 tick draws a victim index 1 000 times: the draw must not
   box a float per call. *)
let test_sample_index_no_alloc () =
  let pool = mk_pool 6L in
  let rng = Prng.create 11L in
  let n = 100_000 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    sink := !sink + Traffic.Flow_pool.sample_index pool rng
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 0.01 then Alcotest.failf "%.3f minor words per draw" words;
  Alcotest.(check bool) "indices drawn" true (!sink > 0)

let test_pool_churn () =
  let rng = Prng.create 4L in
  let pool = mk_pool 4L in
  let before = List.init 100 (Traffic.Flow_pool.nth pool) in
  let k = Traffic.Flow_pool.churn pool rng ~fraction:0.3 in
  Alcotest.(check int) "churn count" 30 k;
  let after = List.init 100 (Traffic.Flow_pool.nth pool) in
  Alcotest.(check bool) "some flows replaced" true (before <> after)

let test_packet_of_flow () =
  let f =
    { Traffic.src = ip "10.0.0.1"; dst = ip "10.1.0.2";
      proto = Ipv4.proto_udp; src_port = 1234; dst_port = 80; pkt_len = 200 }
  in
  let p = Traffic.packet_of_flow f in
  Alcotest.(check int) "pkt size honoured" 200 (Packet.size p)

let test_cbr () =
  let s = Traffic.Schedule.cbr ~rate_pps:10. ~start:0. ~stop:1. in
  Alcotest.(check int) "10 pps for 1 s" 10 (Traffic.Schedule.count s)

let test_cbr_zero_rate () =
  Alcotest.(check int) "zero rate empty" 0
    (Traffic.Schedule.count (Traffic.Schedule.cbr ~rate_pps:0. ~start:0. ~stop:1.))

let test_poisson_rate () =
  let rng = Prng.create 8L in
  let s = Traffic.Schedule.poisson rng ~rate_pps:1000. ~start:0. ~stop:10. in
  let n = Traffic.Schedule.count s in
  if n < 9000 || n > 11000 then Alcotest.failf "poisson count %d far from 10000" n

let test_poisson_monotonic () =
  let rng = Prng.create 9L in
  let s = Traffic.Schedule.poisson rng ~rate_pps:100. ~start:5. ~stop:6. in
  let prev = ref 5. in
  Seq.iter
    (fun t ->
      if t < !prev then Alcotest.fail "arrivals not monotonic";
      prev := t)
    s

let test_rate_for_bandwidth () =
  let pps = Traffic.rate_for_bandwidth ~bits_per_sec:1e9 ~pkt_len:1500 in
  if abs_float (pps -. 83333.33) > 1. then Alcotest.failf "pps %f" pps

let suite =
  [ Alcotest.test_case "pool size" `Quick test_pool_size;
    Alcotest.test_case "pool deterministic" `Quick test_pool_deterministic;
    Alcotest.test_case "pool respects nets" `Quick test_pool_nets;
    Alcotest.test_case "zipf head popularity" `Quick test_pool_sample_zipf;
    Alcotest.test_case "sample_index draws as sample" `Quick test_sample_index;
    Alcotest.test_case "sample_index allocates nothing" `Quick
      test_sample_index_no_alloc;
    Alcotest.test_case "churn" `Quick test_pool_churn;
    Alcotest.test_case "packet_of_flow size" `Quick test_packet_of_flow;
    Alcotest.test_case "cbr count" `Quick test_cbr;
    Alcotest.test_case "cbr zero rate" `Quick test_cbr_zero_rate;
    Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
    Alcotest.test_case "poisson monotonic" `Quick test_poisson_monotonic;
    Alcotest.test_case "rate_for_bandwidth" `Quick test_rate_for_bandwidth ]
