(* Conformance suite for the Dataplane interface: every backend — Pmd
   with one shard (the datapath) and with four, and the cache-less
   mitigation baseline — must honour the same contract (classification,
   accounting, revalidation, shard hooks), differing only in whether it
   has caches to account for.
   Plus regression tests for the bounded upcall queue. *)

open Pi_ovs
open Pi_classifier
open Helpers

(* The whitelist-ACL rule set of the paper's running example: allow one
   /32 source, drop the rest. *)
let rules =
  [ Rule.make ~priority:100
      ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
      ~action:(Action.Output 2) ();
    Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ]

let trusted = Flow.make ~ip_src:(ip "10.0.0.10") ()

(* Adversarial sources diverging from the trusted /32 at depth [k] — the
   covert stream that mints one mask per divergence depth. *)
let covert k =
  let src = Int32.logxor (Pi_pkt.Ipv4_addr.of_string "10.0.0.10")
      (Int32.shift_left 1l (31 - k)) in
  Flow.make ~ip_src:src ()

module type CASE = sig
  val label : string
  val backend : unit -> Dataplane.backend

  val cached : bool
  (** Backend has EMC/megaflow caches and a slow path to account for;
      [false] for the cache-less baseline, whose cache counters must all
      read 0. *)
end

module Conformance (C : CASE) = struct
  let mk ?telemetry ?provenance () =
    let dp =
      Dataplane.create ?telemetry ?provenance (C.backend ())
        (Pi_pkt.Prng.create 7L)
    in
    Dataplane.install_rules dp rules;
    dp

  let test_classify_and_account () =
    let dp = mk () in
    let action, _ = Dataplane.process dp ~now:0. trusted ~pkt_len:100 in
    Alcotest.(check action_t) "trusted allowed" (Action.Output 2) action;
    let action, _ = Dataplane.process dp ~now:0. (covert 5) ~pkt_len:100 in
    Alcotest.(check action_t) "covert dropped" Action.Drop action;
    let st = Dataplane.stats dp in
    Alcotest.(check int) "packets counted" 2 st.Dataplane.packets;
    if C.cached then begin
      Alcotest.(check int) "both packets upcalled" 2 st.Dataplane.upcalls;
      Alcotest.(check bool) "megaflows installed" true (st.Dataplane.megaflows >= 1);
      Alcotest.(check bool) "masks minted" true (st.Dataplane.masks >= 1)
    end
    else begin
      Alcotest.(check int) "no upcalls without a slow path" 0 st.Dataplane.upcalls;
      Alcotest.(check int) "no megaflow cache" 0 st.Dataplane.megaflows;
      Alcotest.(check int) "no masks" 0 st.Dataplane.masks
    end;
    Alcotest.(check bool) "cycles charged" true (st.Dataplane.cycles > 0.);
    Alcotest.(check (float 1e-9)) "cycles_used = stats.cycles"
      st.Dataplane.cycles (Dataplane.cycles_used dp)

  let test_burst_alignment () =
    let dp = mk () in
    let pkts = [| (trusted, 100); (covert 3, 64); (trusted, 1500) |] in
    let rs = Dataplane.process_burst dp ~now:0. pkts in
    Alcotest.(check int) "one result per packet" 3 (Array.length rs);
    Alcotest.(check action_t) "r0" (Action.Output 2) (fst rs.(0));
    Alcotest.(check action_t) "r1" Action.Drop (fst rs.(1));
    Alcotest.(check action_t) "r2" (Action.Output 2) (fst rs.(2));
    Alcotest.(check int) "burst counted" 3 (Dataplane.stats dp).Dataplane.packets

  let test_batch_columns () =
    (* The batch entry point proper: results land in the Batch's own
       columns, the length is untouched, and a refilled batch can be
       reused. *)
    let dp = mk () in
    let b = Batch.create ~capacity:8 in
    Batch.push b trusted ~pkt_len:100;
    Batch.push b (covert 3) ~pkt_len:64;
    Batch.push b trusted ~pkt_len:1500;
    Dataplane.process_batch dp b ~now:0.;
    Alcotest.(check int) "length untouched" 3 (Batch.length b);
    Alcotest.(check action_t) "r0" (Action.Output 2) (Batch.action b 0);
    Alcotest.(check action_t) "r1" Action.Drop (Batch.action b 1);
    Alcotest.(check action_t) "r2" (Action.Output 2) (Batch.action b 2);
    let o = Batch.outcome b 2 in
    (* Cached backends serve the repeat flow from EMC/megaflow; the
       cache-less baseline re-walks its classifier every time (priced as
       [mf_hit] with the walk's probe count) but never upcalls twice. *)
    if C.cached then
      Alcotest.(check bool) "repeat flow served from a cache" true
        (o.Cost_model.emc_hit || o.Cost_model.mf_hit)
    else Alcotest.(check bool) "no upcall on repeat" false o.Cost_model.upcall;
    Alcotest.(check int) "pkt_len in the outcome" 1500 o.Cost_model.pkt_len;
    Alcotest.(check int) "batch counted" 3
      (Dataplane.stats dp).Dataplane.packets;
    (* Reuse: clear + refill is the rx-ring pattern the API is for. *)
    Batch.clear b;
    Batch.push b (covert 7) ~pkt_len:100;
    Dataplane.process_batch dp b ~now:0.1;
    Alcotest.(check action_t) "reused batch classifies" Action.Drop
      (Batch.action b 0);
    Alcotest.(check int) "running total" 4
      (Dataplane.stats dp).Dataplane.packets

  let test_rule_change_takes_effect () =
    let dp = mk () in
    ignore (Dataplane.process dp ~now:0. trusted ~pkt_len:100);
    (* A higher-priority override: stale cached verdicts must not
       survive the revalidation that follows the policy change. *)
    Dataplane.install_rules dp
      [ Rule.make ~priority:200 ~pattern:Pattern.any ~action:Action.Drop () ];
    ignore (Dataplane.revalidate dp ~now:1.);
    let action, _ = Dataplane.process dp ~now:1.1 trusted ~pkt_len:100 in
    Alcotest.(check action_t) "override wins after revalidate" Action.Drop action

  let test_remove_rules () =
    let dp = mk () in
    let removed =
      Dataplane.remove_rules dp (fun r ->
          Action.equal r.Rule.action (Action.Output 2))
    in
    Alcotest.(check int) "one rule removed" 1 removed;
    ignore (Dataplane.revalidate dp ~now:0.5);
    let action, _ = Dataplane.process dp ~now:1. trusted ~pkt_len:100 in
    Alcotest.(check action_t) "whitelist entry gone" Action.Drop action

  let test_mask_monotone_under_attack () =
    (* The covert stream only ever adds mask shapes between
       revalidations; the per-step count must be non-decreasing, and for
       cached backends the attack must actually grow it. *)
    let dp = mk () in
    ignore (Dataplane.process dp ~now:0. trusted ~pkt_len:100);
    let start = (Dataplane.stats dp).Dataplane.masks in
    let prev = ref start in
    for k = 0 to 31 do
      ignore (Dataplane.process dp ~now:0.1 (covert k) ~pkt_len:100);
      let m = (Dataplane.stats dp).Dataplane.masks in
      Alcotest.(check bool) "mask count non-decreasing" true (m >= !prev);
      prev := m
    done;
    if C.cached then
      Alcotest.(check bool) "attack mints masks" true (!prev > start)
    else Alcotest.(check int) "immune: still no masks" 0 !prev;
    let sum = Array.fold_left ( + ) 0 (Dataplane.shard_masks dp) in
    Alcotest.(check int) "shard_masks sums to stats.masks" !prev sum

  let test_shard_hooks () =
    let dp = mk () in
    let n = Dataplane.n_shards dp in
    Alcotest.(check bool) "at least one shard" true (n >= 1);
    Alcotest.(check int) "shard_masks length" n
      (Array.length (Dataplane.shard_masks dp));
    Alcotest.(check int) "shard_cycles length" n
      (Array.length (Dataplane.shard_cycles dp));
    for k = 0 to 7 do
      let s = Dataplane.shard_of dp (covert k) in
      Alcotest.(check bool) "shard_of in range" true (s >= 0 && s < n)
    done;
    (* Without telemetry, no shard reports a registry. *)
    Alcotest.(check bool) "no metrics when telemetry off" true
      (Dataplane.shard_metrics dp 0 = None);
    match Dataplane.shard_metrics dp n with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "shard_metrics out of range must raise"

  let test_service_and_reset () =
    let dp = mk () in
    ignore (Dataplane.process dp ~now:0. trusted ~pkt_len:100);
    (* Default configs are synchronous: nothing pending to service. *)
    Alcotest.(check int) "no deferred upcalls by default" 0
      (Dataplane.service_upcalls dp ~now:0.5);
    Alcotest.(check int) "nothing pending" 0
      (Dataplane.stats dp).Dataplane.pending_upcalls;
    Dataplane.reset_stats dp;
    let st = Dataplane.stats dp in
    Alcotest.(check int) "packets reset" 0 st.Dataplane.packets;
    Alcotest.(check (float 0.)) "cycles reset" 0. st.Dataplane.cycles

  let test_telemetry_roundtrip () =
    let ctx = Pi_telemetry.Ctx.v ~metrics:(Pi_telemetry.Metrics.create ()) () in
    let dp = mk ~telemetry:ctx () in
    Alcotest.(check bool) "ctx carries metrics" true
      (Pi_telemetry.Ctx.metrics (Dataplane.telemetry dp) <> None)

  let drive dp =
    Array.init 17 (fun i ->
        let f = if i = 0 then trusted else covert (i - 1) in
        fst (Dataplane.process dp ~now:(float_of_int i *. 0.01) f ~pkt_len:100))

  let test_provenance_off_parity () =
    (* Attaching a provenance registry must not change what the
       dataplane does — same verdicts, same counters, same cycles. *)
    let reg = Provenance.registry () in
    Provenance.bind reg ~tenant:2 rules;
    let plain = mk () and attributed = mk ~provenance:reg () in
    let a = drive plain and b = drive attributed in
    Array.iteri
      (fun i action ->
        Alcotest.(check action_t) (Printf.sprintf "action %d" i) action b.(i))
      a;
    let sp = Dataplane.stats plain and sa = Dataplane.stats attributed in
    Alcotest.(check int) "packets" sp.Dataplane.packets sa.Dataplane.packets;
    Alcotest.(check int) "upcalls" sp.Dataplane.upcalls sa.Dataplane.upcalls;
    Alcotest.(check int) "masks" sp.Dataplane.masks sa.Dataplane.masks;
    Alcotest.(check int) "megaflows" sp.Dataplane.megaflows sa.Dataplane.megaflows;
    Alcotest.(check (float 1e-9)) "cycles" sp.Dataplane.cycles sa.Dataplane.cycles

  let test_provenance_attribution () =
    let reg = Provenance.registry () in
    Provenance.bind reg ~tenant:2 rules;
    let dp = mk ~provenance:reg () in
    ignore (drive dp);
    let summary = Dataplane.attribution dp in
    if C.cached then begin
      Alcotest.(check bool) "one store per shard" true
        (List.length (Dataplane.provenance dp) = Dataplane.n_shards dp);
      match summary.Provenance.rows with
      | row :: _ ->
        Alcotest.(check int) "upcalls attributed to the bound tenant" 2
          row.Provenance.t_tenant;
        Alcotest.(check bool) "masks attributed" true (row.Provenance.t_masks > 0);
        Alcotest.(check bool) "offending rules recorded" true
          (row.Provenance.t_rules <> [])
      | [] -> Alcotest.fail "cached backend produced no attribution rows"
    end
    else begin
      Alcotest.(check int) "no stores without caches" 0
        (List.length (Dataplane.provenance dp));
      Alcotest.(check bool) "empty summary" true (summary.Provenance.rows = [])
    end

  let test_introspection_hooks () =
    let dp = mk () in
    ignore (drive dp);
    let n = Dataplane.n_shards dp in
    let flows = ref 0 and stat_entries = ref 0 in
    for s = 0 to n - 1 do
      flows := !flows + List.length (Dataplane.shard_flows dp s);
      List.iter
        (fun ms ->
          stat_entries := !stat_entries + ms.Megaflow.ms_entries;
          if ms.Megaflow.ms_entries > 0 then begin
            Alcotest.(check bool) "flat table has headroom" true
              (ms.Megaflow.ms_capacity > ms.Megaflow.ms_entries);
            Alcotest.(check bool) "probe stats sane" true
              (ms.Megaflow.ms_max_probe >= 1 && ms.Megaflow.ms_mean_probe >= 1.)
          end)
        (Dataplane.shard_mask_stats dp s)
    done;
    (* dump-masks surfaces the flat-table health per subtable. *)
    (if (Dataplane.stats dp).Dataplane.masks > 0 then
       let text = Format.asprintf "%a" Dpctl.dump_masks dp in
       Alcotest.(check bool) "dump-masks reports occupancy" true
         (Astring_like.contains text "occupancy:");
       Alcotest.(check bool) "dump-masks reports probe length" true
         (Astring_like.contains text "probe-len:"));
    let st = Dataplane.stats dp in
    Alcotest.(check int) "shard_flows covers every megaflow"
      st.Dataplane.megaflows !flows;
    Alcotest.(check int) "mask stats cover every entry"
      st.Dataplane.megaflows !stat_entries;
    (match Dataplane.shard_flows dp n with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "shard_flows out of range must raise");
    match Dataplane.shard_mask_stats dp n with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "shard_mask_stats out of range must raise"

  let suite =
    List.map
      (fun (name, f) -> Alcotest.test_case (C.label ^ ": " ^ name) `Quick f)
      [ ("classify and account", test_classify_and_account);
        ("burst alignment", test_burst_alignment);
        ("batch columns", test_batch_columns);
        ("rule change takes effect", test_rule_change_takes_effect);
        ("remove rules", test_remove_rules);
        ("mask monotonicity under attack", test_mask_monotone_under_attack);
        ("shard hooks", test_shard_hooks);
        ("service and reset", test_service_and_reset);
        ("telemetry roundtrip", test_telemetry_roundtrip);
        ("provenance off = on, minus the report", test_provenance_off_parity);
        ("provenance attribution", test_provenance_attribution);
        ("introspection hooks", test_introspection_hooks) ]
end

(* One shard: the datapath. *)
module Pmd1_case = Conformance (struct
  let label = "datapath"
  let backend () = Dataplane.pmd ()
  let cached = true
end)

module Pmd_case = Conformance (struct
  let label = "pmd-4"
  let backend () =
    Dataplane.pmd ~config:{ Pmd.default_config with Pmd.n_shards = 4 } ()
  let cached = true
end)

module Cacheless_case = Conformance (struct
  let label = "cacheless"
  let backend () = Pi_mitigation.Cacheless.dataplane ()
  let cached = false
end)

(* --- Upcall queue: unit tests --------------------------------------- *)

let test_queue_bounds () =
  let q = Upcall_queue.create (Upcall_queue.bounded 2) in
  Alcotest.(check bool) "push 1" true (Upcall_queue.push q 1);
  Alcotest.(check bool) "push 2" true (Upcall_queue.push q 2);
  Alcotest.(check bool) "push 3 refused" false (Upcall_queue.push q 3);
  Alcotest.(check int) "one drop" 1 (Upcall_queue.drops q);
  Alcotest.(check int) "two queued" 2 (Upcall_queue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Upcall_queue.pop q);
  Alcotest.(check (option int)) "fifo pop 2" (Some 2) (Upcall_queue.pop q);
  Alcotest.(check (option int)) "empty" None (Upcall_queue.pop q)

let test_queue_config () =
  Alcotest.(check bool) "default is synchronous" true
    (Upcall_queue.synchronous Upcall_queue.default_config);
  Alcotest.(check bool) "bounded is deferred" false
    (Upcall_queue.synchronous (Upcall_queue.bounded 8));
  let q = Upcall_queue.create (Upcall_queue.bounded ~handler_budget:3 8) in
  Alcotest.(check int) "budget" 3 (Upcall_queue.budget q);
  let q' = Upcall_queue.create (Upcall_queue.bounded 8) in
  Alcotest.(check int) "unlimited budget" max_int (Upcall_queue.budget q');
  Alcotest.check_raises "depth must be positive"
    (Invalid_argument "Upcall_queue.bounded: depth") (fun () ->
      ignore (Upcall_queue.bounded 0))

let test_queue_clear () =
  (* Regression: clear used to silently discard pending upcalls — the
     packets vanished from every counter. Each cleared-pending item is a
     missed packet the slow path will never resolve: a drop. *)
  let q = Upcall_queue.create (Upcall_queue.bounded 4) in
  ignore (Upcall_queue.push q 1);
  ignore (Upcall_queue.push q 2);
  Upcall_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Upcall_queue.length q);
  Alcotest.(check int) "cleared-pending items count as drops" 2
    (Upcall_queue.drops q);
  Alcotest.(check bool) "usable after clear" true (Upcall_queue.push q 3);
  Upcall_queue.clear q;
  Alcotest.(check int) "drops accumulate across clears" 3
    (Upcall_queue.drops q)

let test_queue_reset () =
  (* [reset] opens a fresh measurement window: pending items are
     drained (not serviced later, not counted as drops) and the
     counters start from zero. *)
  let q = Upcall_queue.create (Upcall_queue.bounded 2) in
  ignore (Upcall_queue.push q 1);
  ignore (Upcall_queue.push q 2);
  ignore (Upcall_queue.push q 3);
  Alcotest.(check int) "overflow dropped" 1 (Upcall_queue.drops q);
  Upcall_queue.reset q;
  Alcotest.(check int) "pending drained" 0 (Upcall_queue.length q);
  Alcotest.(check int) "drops zeroed, drained items not counted" 0
    (Upcall_queue.drops q);
  Alcotest.(check bool) "usable after reset" true (Upcall_queue.push q 4)

(* --- Bounded queue through the datapath ----------------------------- *)

let deferred_backend ?(depth = 4) ?handler_budget () =
  let dp =
    { Datapath.default_config with
      Datapath.upcall_queue = Upcall_queue.bounded ?handler_budget depth }
  in
  Dataplane.pmd ~config:{ Pmd.default_config with Pmd.dp } ()

let test_deferred_overflow_drops () =
  (* depth 4, six distinct misses: four queue, two drop on the floor. *)
  let tracer = Pi_telemetry.Tracer.create () in
  let ctx = Pi_telemetry.Ctx.v ~tracer () in
  let dp = Dataplane.create ~telemetry:ctx (deferred_backend ~depth:4 ()) (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  for k = 0 to 5 do
    let action, o = Dataplane.process dp ~now:0. (covert k) ~pkt_len:100 in
    Alcotest.(check action_t) "miss defers: packet not forwarded"
      Action.Drop action;
    Alcotest.(check bool) "no inline slow-path classification" false
      o.Cost_model.upcall
  done;
  let st = Dataplane.stats dp in
  Alcotest.(check int) "four pending" 4 st.Dataplane.pending_upcalls;
  Alcotest.(check int) "two dropped" 2 st.Dataplane.upcall_drops;
  Alcotest.(check int) "no megaflows before servicing" 0 st.Dataplane.megaflows;
  let dropped_events =
    List.filter
      (fun e ->
        match e.Pi_telemetry.Tracer.kind with
        | Pi_telemetry.Tracer.Upcall_dropped _ -> true
        | _ -> false)
      (Pi_telemetry.Tracer.to_list tracer)
  in
  Alcotest.(check int) "drops traced" 2 (List.length dropped_events)

let test_deferred_service_budget () =
  let dp =
    Dataplane.create (deferred_backend ~depth:8 ~handler_budget:2 ())
      (Pi_pkt.Prng.create 7L)
  in
  Dataplane.install_rules dp rules;
  for k = 0 to 4 do
    ignore (Dataplane.process dp ~now:0. (covert k) ~pkt_len:100)
  done;
  Alcotest.(check int) "five pending" 5
    (Dataplane.stats dp).Dataplane.pending_upcalls;
  Alcotest.(check int) "budget caps a service round" 2
    (Dataplane.service_upcalls dp ~now:0.5);
  Alcotest.(check int) "three left" 3
    (Dataplane.stats dp).Dataplane.pending_upcalls;
  Alcotest.(check int) "second round" 2 (Dataplane.service_upcalls dp ~now:1.);
  Alcotest.(check int) "drains the tail" 1 (Dataplane.service_upcalls dp ~now:1.5);
  Alcotest.(check int) "empty" 0 (Dataplane.service_upcalls dp ~now:2.);
  let st = Dataplane.stats dp in
  Alcotest.(check int) "all serviced" 0 st.Dataplane.pending_upcalls;
  Alcotest.(check bool) "handler cycles charged beside fast path" true
    (st.Dataplane.handler_cycles > 0.);
  Alcotest.(check bool) "megaflows installed by handlers" true
    (st.Dataplane.megaflows >= 1);
  (* A serviced flow's megaflow is live: its next packet stays on the
     fast path and forwards correctly. *)
  let action, o = Dataplane.process dp ~now:2.1 (covert 0) ~pkt_len:100 in
  Alcotest.(check action_t) "cached verdict" Action.Drop action;
  Alcotest.(check bool) "fast-path hit" true
    (o.Cost_model.emc_hit || o.Cost_model.mf_hit)

let test_deferred_trusted_flow_resolves () =
  (* The whitelisted flow is dropped while unresolved, then forwards
     once a handler installs its megaflow — the wire-visible DoS shape. *)
  let dp = Dataplane.create (deferred_backend ()) (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  let a0, _ = Dataplane.process dp ~now:0. trusted ~pkt_len:100 in
  Alcotest.(check action_t) "unresolved: dropped" Action.Drop a0;
  Alcotest.(check int) "serviced" 1 (Dataplane.service_upcalls dp ~now:0.5);
  let a1, _ = Dataplane.process dp ~now:1. trusted ~pkt_len:100 in
  Alcotest.(check action_t) "resolved: forwarded" (Action.Output 2) a1

let test_reset_drains_pending () =
  (* Regression: [reset_stats] used to leave pending upcalls queued, so
     a mid-run reset (the bench measurement-window pattern) attributed
     stale queue work to the next window. Chosen semantics: drain. *)
  let dp = Dataplane.create (deferred_backend ~depth:8 ()) (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  for k = 0 to 3 do
    ignore (Dataplane.process dp ~now:0. (covert k) ~pkt_len:100)
  done;
  Alcotest.(check int) "four pending before reset" 4
    (Dataplane.stats dp).Dataplane.pending_upcalls;
  Dataplane.reset_stats dp;
  let st = Dataplane.stats dp in
  Alcotest.(check int) "reset drains pending upcalls" 0
    st.Dataplane.pending_upcalls;
  Alcotest.(check int) "drained items are not drops" 0 st.Dataplane.upcall_drops;
  Alcotest.(check int) "nothing to service in the new window" 0
    (Dataplane.service_upcalls dp ~now:1.);
  Alcotest.(check int) "no stale handler work attributed" 0
    (Dataplane.stats dp).Dataplane.upcalls;
  Alcotest.(check (float 0.)) "no stale handler cycles" 0.
    (Dataplane.stats dp).Dataplane.handler_cycles

let queue_suite =
  [ Alcotest.test_case "queue: bounds and fifo" `Quick test_queue_bounds;
    Alcotest.test_case "queue: config" `Quick test_queue_config;
    Alcotest.test_case "queue: clear" `Quick test_queue_clear;
    Alcotest.test_case "queue: reset" `Quick test_queue_reset;
    Alcotest.test_case "deferred: reset drains pending" `Quick
      test_reset_drains_pending;
    Alcotest.test_case "deferred: overflow drops" `Quick
      test_deferred_overflow_drops;
    Alcotest.test_case "deferred: handler budget" `Quick
      test_deferred_service_budget;
    Alcotest.test_case "deferred: trusted flow resolves" `Quick
      test_deferred_trusted_flow_resolves ]

let suite =
  Pmd1_case.suite @ Pmd_case.suite @ Cacheless_case.suite @ queue_suite
