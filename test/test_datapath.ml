open Pi_ovs
open Pi_classifier
open Helpers

let mk ?config () =
  let dp = Datapath.create ?config (Pi_pkt.Prng.create 3L) () in
  Datapath.install_rules dp
    [ Rule.make ~priority:100
        ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
        ~action:(Action.Output 2) ();
      Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ];
  dp

let test_first_packet_upcalls () =
  let dp = mk () in
  let f = Flow.make ~ip_src:(ip "10.0.0.10") () in
  let action, o = Datapath.process dp ~now:0. f ~pkt_len:100 in
  Alcotest.(check action_t) "allowed" (Action.Output 2) action;
  Alcotest.(check bool) "upcall" true o.Cost_model.upcall;
  Alcotest.(check bool) "no emc hit" false o.Cost_model.emc_hit;
  Alcotest.(check int) "one upcall" 1 (Datapath.n_upcalls dp);
  Alcotest.(check int) "one megaflow" 1 (Datapath.n_megaflows dp)

let test_second_packet_cached () =
  let config = { Datapath.default_config with Datapath.emc_insert_inv_prob = 1 } in
  let dp = mk ~config () in
  let f = Flow.make ~ip_src:(ip "10.0.0.10") () in
  ignore (Datapath.process dp ~now:0. f ~pkt_len:100);
  let _, o = Datapath.process dp ~now:0.1 f ~pkt_len:100 in
  Alcotest.(check bool) "emc hit" true o.Cost_model.emc_hit;
  Alcotest.(check int) "still one upcall" 1 (Datapath.n_upcalls dp)

let test_megaflow_aggregates () =
  (* Two different denied sources diverging at the same bit share one
     megaflow: the second packet is a megaflow hit, not an upcall. *)
  let config = { Datapath.default_config with Datapath.emc_enabled = false } in
  let dp = mk ~config () in
  ignore (Datapath.process dp ~now:0. (Flow.make ~ip_src:(ip "130.0.0.1") ()) ~pkt_len:10);
  let _, o = Datapath.process dp ~now:0. (Flow.make ~ip_src:(ip "131.0.0.99") ()) ~pkt_len:10 in
  Alcotest.(check bool) "megaflow hit" true o.Cost_model.mf_hit;
  Alcotest.(check bool) "no second upcall" false o.Cost_model.upcall;
  Alcotest.(check int) "one megaflow covers both" 1 (Datapath.n_megaflows dp)

let test_emc_disabled () =
  let config = { Datapath.default_config with Datapath.emc_enabled = false } in
  let dp = mk ~config () in
  let f = Flow.make ~ip_src:(ip "10.0.0.10") () in
  ignore (Datapath.process dp ~now:0. f ~pkt_len:100);
  let _, o = Datapath.process dp ~now:0.1 f ~pkt_len:100 in
  Alcotest.(check bool) "no emc hit when disabled" false o.Cost_model.emc_hit;
  Alcotest.(check bool) "megaflow hit instead" true o.Cost_model.mf_hit

let test_revalidate_stale_revision () =
  let dp = mk () in
  let f = Flow.make ~ip_src:(ip "10.0.0.10") () in
  ignore (Datapath.process dp ~now:0. f ~pkt_len:100);
  Alcotest.(check int) "cached" 1 (Datapath.n_megaflows dp);
  (* New policy: revision bump; revalidation must flush old megaflows. *)
  Datapath.install_rules dp
    [ Rule.make ~priority:50 ~pattern:(Pattern.with_tp_dst Pattern.any 80)
        ~action:Action.Drop () ];
  let evicted = Datapath.revalidate dp ~now:1. in
  Alcotest.(check int) "stale megaflow evicted" 1 evicted;
  Alcotest.(check int) "cache empty" 0 (Datapath.n_megaflows dp)

let test_emc_follows_megaflow_death () =
  let config = { Datapath.default_config with Datapath.emc_insert_inv_prob = 1 } in
  let dp = mk ~config () in
  let f = Flow.make ~ip_src:(ip "10.0.0.10") () in
  ignore (Datapath.process dp ~now:0. f ~pkt_len:100);
  ignore (Datapath.process dp ~now:0.1 f ~pkt_len:100);  (* emc hit *)
  (* Idle long enough for the megaflow to expire. *)
  ignore (Datapath.revalidate dp ~now:100.);
  let _, o = Datapath.process dp ~now:100.1 f ~pkt_len:100 in
  Alcotest.(check bool) "no stale emc hit" false o.Cost_model.emc_hit;
  Alcotest.(check bool) "upcall re-run" true o.Cost_model.upcall

let test_mask_limit () =
  let config =
    { Datapath.default_config with
      Datapath.emc_enabled = false;
      mask_limit = Some 8 }
  in
  let dp = mk ~config () in
  (* Drive the Fig. 2b attack: without the cap this creates 32 masks. *)
  let base = ip "10.0.0.10" in
  for k = 0 to 31 do
    let src = Int32.logxor base (Int32.shift_left 1l (31 - k)) in
    ignore (Datapath.process dp ~now:0. (Flow.make ~ip_src:src ()) ~pkt_len:10)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "masks capped (got %d)" (Datapath.n_masks dp))
    true
    (Datapath.n_masks dp <= 9)

let test_megaflow_transform () =
  let config =
    { Datapath.default_config with
      Datapath.emc_enabled = false;
      megaflow_transform = Some (fun _ -> Mask.exact) }
  in
  let dp = mk ~config () in
  ignore (Datapath.process dp ~now:0. (Flow.make ~ip_src:(ip "11.0.0.1") ()) ~pkt_len:10);
  match Megaflow.masks (Datapath.megaflow dp) with
  | [ m ] -> Alcotest.(check mask_t) "exact mask installed" Mask.exact m
  | l -> Alcotest.failf "expected one mask, got %d" (List.length l)

let test_cycles_accounted () =
  let dp = mk () in
  ignore (Datapath.process dp ~now:0. (Flow.make ~ip_src:(ip "10.0.0.10") ()) ~pkt_len:100);
  Alcotest.(check bool) "cycles positive" true (Datapath.cycles_used dp > 0.);
  Datapath.reset_stats dp;
  Alcotest.(check (float 0.0)) "reset" 0.0 (Datapath.cycles_used dp)

let test_consistency_with_slowpath () =
  (* Cached verdicts must equal what the slow path would say, for many
     random flows (cache correctness end to end). *)
  let dp = mk () in
  let rng = Pi_pkt.Prng.create 9L in
  for i = 0 to 999 do
    let src = Pi_pkt.Prng.int32 rng in
    let f = Flow.make ~ip_src:src ~tp_dst:(i land 0xFF) () in
    let cached, _ = Datapath.process dp ~now:(float_of_int i *. 0.001) f ~pkt_len:10 in
    let direct = (Slowpath.upcall (Datapath.slowpath dp) f).Slowpath.action in
    if not (Action.equal cached direct) then
      Alcotest.failf "cache diverged from slow path at iteration %d" i
  done

(* Stateful coherence: under an arbitrary interleaving of rule installs,
   rule removals, revalidations and packets, every verdict served from
   the caches matches the current slow path — except during the one
   well-defined stale window (packets classified between a rule change
   and the next revalidation may see the previous policy, exactly as in
   OVS). We eliminate the window by revalidating after every change. *)
let gen_ops =
  let open QCheck2.Gen in
  let gen_op =
    frequency
      [ (6, map (fun f -> `Packet f) Helpers.gen_small_flow);
        (1, map2 (fun pat prio -> `Install (pat, prio)) Helpers.gen_small_pattern (int_range 0 8));
        (1, return `Remove_one);
        (1, return `Revalidate) ]
  in
  list_size (int_range 10 60) gen_op

let prop_coherent_under_churn =
  qtest ~count:150 "cache coherent under rule churn" gen_ops (fun ops ->
      let config = { Datapath.default_config with Datapath.emc_insert_inv_prob = 1 } in
      let dp = Datapath.create ~config (Pi_pkt.Prng.create 17L) () in
      Datapath.install_rules dp
        [ Rule.make ~priority:0 ~pattern:Pattern.any ~action:Action.Drop () ];
      ignore (Datapath.revalidate dp ~now:0.);
      let now = ref 0. in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          now := !now +. 0.001;
          match op with
          | `Install (pattern, priority) ->
            incr counter;
            Datapath.install_rules dp
              [ Rule.make ~priority ~pattern ~action:(Action.Output !counter) () ];
            ignore (Datapath.revalidate dp ~now:!now);
            true
          | `Remove_one ->
            let removed = ref false in
            ignore
              (Datapath.remove_rules dp (fun r ->
                   if !removed || r.Rule.priority = 0 then false
                   else begin
                     removed := true;
                     true
                   end));
            ignore (Datapath.revalidate dp ~now:!now);
            true
          | `Revalidate ->
            ignore (Datapath.revalidate dp ~now:!now);
            true
          | `Packet f ->
            let cached, _ = Datapath.process dp ~now:!now f ~pkt_len:64 in
            let direct = (Slowpath.upcall (Datapath.slowpath dp) f).Slowpath.action in
            Action.equal cached direct)
        ops)

(* --- Chunked synchronous upcalls ---------------------------------------

   [process_batch] classifies a burst's misses in chunks and installs
   each one from its slot of the slow path's scratch. Each case sends the
   same rounds through two datapaths: one with [process_batch] (a round
   of one packet is a [process] call), the other one packet at a time
   with [process], at the same clock. The per-packet result columns, the
   counters — [upcall] and [slow_probes] above all — and the cached
   megaflows must agree, and [upcalls] pins how many packets upcalled.
   Returns the batched side's results, round by round. *)

let show_result ((a, o) : Action.t * Cost_model.outcome) =
  Printf.sprintf "%s emc:%b mf:%b/%d upcall:%b/%d" (Action.to_string a)
    o.Cost_model.emc_hit o.Cost_model.mf_hit o.Cost_model.mf_probes
    o.Cost_model.upcall o.Cost_model.slow_probes

let same_as_one_at_a_time ?(config = Datapath.default_config) rounds ~upcalls =
  let side () =
    let metrics = Pi_telemetry.Metrics.create () in
    let dp =
      Datapath.create ~config ~telemetry:(Pi_telemetry.Ctx.v ~metrics ())
        (Pi_pkt.Prng.create 3L) ()
    in
    Datapath.install_rules dp
      [ Rule.make ~priority:100
          ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
          ~action:(Action.Output 2) ();
        Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ];
    (dp, metrics)
  in
  let batched, mb = side () and single, ms = side () in
  let results =
    List.mapi
      (fun r flows ->
        let now = float_of_int r in
        let want =
          List.map (fun f -> Datapath.process single ~now f ~pkt_len:100) flows
        in
        let got =
          match flows with
          | [ f ] -> [ Datapath.process batched ~now f ~pkt_len:100 ]
          | _ ->
            let b = Batch.create ~capacity:(List.length flows) in
            List.iter (fun f -> Batch.push b f ~pkt_len:100) flows;
            Datapath.process_batch batched b ~now;
            List.mapi (fun i _ -> Batch.result b i) flows
        in
        Alcotest.(check (list string)) (Printf.sprintf "round %d" r)
          (List.map show_result want) (List.map show_result got);
        got)
      rounds
  in
  let counter m name =
    Option.value ~default:0 (Pi_telemetry.Metrics.find_counter m name)
  in
  List.iter
    (fun name ->
      Alcotest.(check int) name (counter ms name) (counter mb name))
    [ "upcall"; "slow_probes"; "mf_hit"; "mf_miss"; "emc_hit"; "emc_miss";
      "mask_created"; "megaflow_evicted" ];
  Alcotest.(check int) "upcalls" upcalls (counter mb "upcall");
  let dump dp =
    Format.asprintf "%a" (fun ppf -> Megaflow.dump ~now:9. ppf) (Datapath.megaflow dp)
  in
  Alcotest.(check string) "megaflows" (dump single) (dump batched);
  results

let trusted = Flow.make ~ip_src:(ip "10.0.0.10") ()

(* Denied, with a megaflow on the ip_src prefix down to bit [k]: every
   [covert k ~low] shares it. *)
let covert ?(low = 0) k =
  let src = Int32.logxor (ip "10.0.0.10") (Int32.shift_left 1l (31 - k)) in
  Flow.make ~ip_src:(Int32.logxor src (Int32.of_int low)) ()

let no_emc = { Datapath.default_config with Datapath.emc_enabled = false }

let upcalled rounds ~round ~pos =
  (snd (List.nth (List.nth rounds round) pos)).Cost_model.upcall

(* Six walk misses in one chunk: the installs of [covert 3] and [covert
   5] serve the later packets sharing their megaflows, which do not
   upcall; then twelve fresh masks, more than one chunk holds. *)
let test_chunk_install_serves_later () =
  ignore
    (same_as_one_at_a_time ~config:no_emc ~upcalls:16
       [ [ covert 3; covert 5; covert ~low:1 3; trusted; covert ~low:2 5;
           covert 7 ];
         List.init 12 (fun k -> covert (8 + k)) ])

(* A flow limit of 2: the second install of the burst evicts the
   trusted flow's megaflow, so the walk results are re-walked and the
   trusted packet, a hit at walk time, must upcall in mid-chunk. *)
let test_chunk_flow_limit_rewalk () =
  let config =
    { no_emc with
      Datapath.megaflow = { Megaflow.default_config with Megaflow.max_entries = 2 } }
  in
  let r =
    same_as_one_at_a_time ~config ~upcalls:6
      [ [ trusted ]; [ covert 1; covert 2; covert 3; trusted; covert 4 ] ]
  in
  Alcotest.(check bool) "trusted re-walked and upcalled" true
    (upcalled r ~round:1 ~pos:3)

(* The trusted flow is an EMC hit when the burst is probed, but the
   flow limit evicts its megaflow before its turn: the stale hit is
   walked alone and upcalls between packets of the chunk. *)
let test_chunk_stale_emc_hit () =
  let config =
    { Datapath.default_config with
      Datapath.emc_insert_inv_prob = 1;
      megaflow = { Megaflow.default_config with Megaflow.max_entries = 2 } }
  in
  let r =
    same_as_one_at_a_time ~config ~upcalls:6
      [ [ trusted ]; [ covert 1; covert 2; covert 3; trusted; covert 4 ] ]
  in
  Alcotest.(check bool) "stale emc hit upcalled" true
    (upcalled r ~round:1 ~pos:3)

(* The first burst ends with its chunk's last slot unused ([covert
   ~low:1 3] is served by [covert 3]'s install). The next burst needs an
   upcall at that position for another flow; then a [process] follows a
   burst, and a burst follows the [process]. No chunk slot may outlive
   its call. *)
let test_chunk_process_after_burst () =
  let r =
    same_as_one_at_a_time ~upcalls:8
      [ [ covert 9; covert 3; covert ~low:1 3 ];
        [ covert 9; covert 3; trusted ];
        [ covert 12 ];
        [ covert 14; covert 12; covert 15 ];
        [ covert 16 ];
        [ covert 17 ] ]
  in
  Alcotest.(check bool) "unused slot left behind" false
    (upcalled r ~round:0 ~pos:2);
  Alcotest.(check bool) "next burst upcalls there" true
    (upcalled r ~round:1 ~pos:2)

(* Deferred mode on a full upcall queue: every miss is dropped and
   counted, and a dropped miss builds no queue item. *)
let test_dropped_miss_allocates_nothing () =
  let config =
    { Datapath.default_config with
      Datapath.upcall_queue = Upcall_queue.bounded 64 }
  in
  let dp = mk ~config () in
  let b = Batch.create ~capacity:32 in
  Batch.fill b
    (Array.init 32 (fun i ->
         (Flow.make ~ip_src:(ip "10.0.0.10") ~tp_src:(1000 + i) (), 100)));
  (* two bursts fill the queue; the rest drop every miss *)
  for _ = 1 to 4 do Datapath.process_batch dp b ~now:0. done;
  let d0 = Datapath.upcall_drops dp in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do Datapath.process_batch dp b ~now:0. done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every miss dropped and counted" 3200
    (Datapath.upcall_drops dp - d0);
  Alcotest.(check int) "queue still full" 64 (Datapath.pending_upcalls dp);
  Alcotest.(check (float 0.)) "minor words" 0. words

let suite =
  [ Alcotest.test_case "first packet upcalls" `Quick test_first_packet_upcalls;
    Alcotest.test_case "deferred drops allocate nothing" `Quick
      test_dropped_miss_allocates_nothing;
    Alcotest.test_case "second packet cached" `Quick test_second_packet_cached;
    Alcotest.test_case "megaflow aggregates flows" `Quick test_megaflow_aggregates;
    Alcotest.test_case "emc disabled" `Quick test_emc_disabled;
    Alcotest.test_case "revalidate flushes stale revision" `Quick test_revalidate_stale_revision;
    Alcotest.test_case "emc follows megaflow death" `Quick test_emc_follows_megaflow_death;
    Alcotest.test_case "mask-limit mitigation" `Quick test_mask_limit;
    Alcotest.test_case "megaflow transform hook" `Quick test_megaflow_transform;
    Alcotest.test_case "cycles accounted" `Quick test_cycles_accounted;
    Alcotest.test_case "cache ≡ slow path (1000 flows)" `Quick test_consistency_with_slowpath;
    Alcotest.test_case "chunked upcalls: an install serves its chunk" `Quick
      test_chunk_install_serves_later;
    Alcotest.test_case "chunked upcalls: flow-limit re-walk" `Quick
      test_chunk_flow_limit_rewalk;
    Alcotest.test_case "chunked upcalls: stale emc hit" `Quick
      test_chunk_stale_emc_hit;
    Alcotest.test_case "chunked upcalls: process after a burst" `Quick
      test_chunk_process_after_burst;
    prop_coherent_under_churn ]
