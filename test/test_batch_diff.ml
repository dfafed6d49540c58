(* Differential property for the batch-first Dataplane API: chopping a
   packet sequence into rx batches and running [process_batch] must be
   observationally identical to running the packets one at a time with
   [process] — same actions, same outcome records, same statistics,
   same per-shard mask census, and the same PRNG stream afterwards (EMC
   insertion sampling draws from it, so a divergent draw order surfaces
   as a diverging tail).

   On the cache-hierarchy backends [process] is itself a batch of one
   through the same code, so the two sides are also held to an oracle
   independent of that code: every packet's action must be the first
   matching rule of a linear scan ([Linear]), except that in deferred
   mode a packet may instead get the pending drop. Each packet's
   [Batch.mf] slot must hold a megaflow that matches the packet and
   carries its action, and be [None] exactly for the pending drop (and
   always on a backend without a megaflow cache).

   The generated traffic mixes the whitelisted flow, the covert stream
   (fresh masks, hence mid-batch upcalls — synchronous backends patch
   each install into the rest of the batch's walk results) and random
   flows;
   batch sizes 1, 7 and 32 cover the degenerate, the ragged and the
   rx-ring case, and sequence lengths indivisible by the batch size
   leave a partial final batch. A four-slot EMC that inserts every
   flow has in-batch inserts overwrite the slots of phase-P hits, so
   those hits go stale and their packets are walked alone. *)

open Pi_ovs
open Pi_classifier
open Helpers

let rules =
  [ Rule.make ~priority:100
      ~pattern:(Pattern.with_ip_src Pattern.any (pfx "10.0.0.10/32"))
      ~action:(Action.Output 2) ();
    Rule.make ~priority:50 ~pattern:(Pattern.with_tp_dst Pattern.any 53)
      ~action:(Action.Output 3) ();
    Rule.make ~priority:1 ~pattern:Pattern.any ~action:Action.Drop () ]

let spec = Linear.of_rules rules

type mode = Synchronous | Deferred | No_megaflow_cache

(* With deferred upcalls a packet may get the pending drop: [Drop], with
   no EMC hit, no megaflow hit and no upcall. *)
let pending_drop mode ((action, o) : Action.t * Cost_model.outcome) =
  mode = Deferred && Action.equal action Action.Drop
  && not (o.Cost_model.emc_hit || o.Cost_model.mf_hit || o.Cost_model.upcall)

(* Every packet gets the first matching rule's action, or the pending
   drop. *)
let agrees_with_spec mode (flow, _) ((action, _) as r) =
  let want =
    match Linear.lookup spec flow with
    | Some r -> r.Rule.action
    | None -> Action.Drop
  in
  Action.equal action want || pending_drop mode r

(* The megaflow that served (or was installed for) a packet matches it
   and carries its action; a pending drop has none. *)
let mf_agrees mode (flow, _) (((action, _) as r), mf) =
  match mf with
  | Some (e : Megaflow.entry) ->
    mode <> No_megaflow_cache && not (pending_drop mode r)
    && Mask.matches e.Megaflow.mask ~key:e.Megaflow.key flow
    && Action.equal e.Megaflow.action action
  | None -> mode = No_megaflow_cache || pending_drop mode r

let trusted = Flow.make ~ip_src:(ip "10.0.0.10") ()

let covert k =
  let src =
    Int32.logxor (ip "10.0.0.10") (Int32.shift_left 1l (31 - k))
  in
  Flow.make ~ip_src:src ()

(* A fixed per-packet tail driven through BOTH dataplanes after the
   differential phase: if the batch path consumed the shared PRNG in a
   different order (EMC insertion sampling), the caches now differ and
   the tail outcomes expose it. *)
let tail =
  List.init 16 (fun i ->
      if i land 1 = 0 then trusted else covert (i land 7))

let gen_case =
  let open QCheck2.Gen in
  let gen_flow_mix =
    frequency
      [ (3, return trusted);
        (4, map covert (int_range 0 31));
        (3, Helpers.gen_small_flow) ]
  in
  let gen_pkt = pair gen_flow_mix (int_range 60 1500) in
  pair (list_size (int_range 1 80) gen_pkt) (oneofl [ 1; 7; 32 ])

(* Both sides stamp packet [i] with the [now] of its rx round, so the
   scalar reference sees exactly the timestamps the batch side does. *)
let now_of bs i = float_of_int (i / bs) *. 0.01

let drive_scalar dp bs pkts =
  List.mapi
    (fun i (f, len) -> Dataplane.process dp ~now:(now_of bs i) f ~pkt_len:len)
    pkts

let drive_batch dp bs pkts =
  let arr = Array.of_list pkts in
  let n = Array.length arr in
  let b = Batch.create ~capacity:bs in
  let res = ref [] in
  let i = ref 0 in
  while !i < n do
    let k = min bs (n - !i) in
    Batch.clear b;
    for j = 0 to k - 1 do
      let f, len = arr.(!i + j) in
      Batch.push b f ~pkt_len:len
    done;
    Dataplane.process_batch dp b ~now:(now_of bs !i);
    for j = 0 to k - 1 do
      res := (Batch.result b j, b.Batch.mf.(j)) :: !res
    done;
    i := !i + k
  done;
  List.rev !res

let mk backend =
  let dp = Dataplane.create (backend ()) (Pi_pkt.Prng.create 7L) in
  Dataplane.install_rules dp rules;
  dp

let differential mode backend (pkts, bs) =
  let a = mk backend and b = mk backend in
  let ra = drive_scalar a bs pkts in
  let rb_mf = drive_batch b bs pkts in
  let rb = List.map fst rb_mf in
  let same_results = ra = rb in
  let per_spec = List.for_all2 (agrees_with_spec mode) pkts rb in
  let mf_per_spec = List.for_all2 (mf_agrees mode) pkts rb_mf in
  let same_stats = Dataplane.stats a = Dataplane.stats b in
  let same_masks = Dataplane.shard_masks a = Dataplane.shard_masks b in
  (* Deferred backends: the queues must drain identically... *)
  let same_service =
    Dataplane.service_upcalls a ~now:9. = Dataplane.service_upcalls b ~now:9.
    && Dataplane.stats a = Dataplane.stats b
  in
  (* ...and the PRNG streams must still be in lockstep. *)
  let tail = List.map (fun f -> (f, 100)) tail in
  let ta = drive_scalar a 1 tail in
  (* Batches of one: after the service, deferred backends serve some
     tail packets from the cache, so their [mf] slots are checked too. *)
  let tb_mf = drive_batch b 1 tail in
  let tb = List.map fst tb_mf in
  let same_tail = ta = tb && Dataplane.stats a = Dataplane.stats b in
  let tail_per_spec =
    List.for_all2 (agrees_with_spec mode) tail tb
    && List.for_all2 (mf_agrees mode) tail tb_mf
  in
  same_results && per_spec && mf_per_spec && same_stats && same_masks && same_service
  && same_tail && tail_per_spec

(* One PMD shard over a datapath configuration: the datapath itself. *)
let pmd1 dp = Dataplane.pmd ~config:{ Pmd.default_config with Pmd.dp } ()

(* (label, count, mode, backend); a [datapath-*] label names the
   datapath configuration its one shard runs *)
let backend_cases =
  [ ("datapath", 150, Synchronous, fun () -> Dataplane.pmd ());
    ( "datapath-deferred",
      150,
      Deferred,
      fun () ->
        (* depth 8 so overflow drops happen mid-sequence and their
           order/count must match too *)
        pmd1
          { Datapath.default_config with
            Datapath.upcall_queue = Upcall_queue.bounded 8 } );
    ( "datapath-kernel",
      150,
      Synchronous,
      fun () ->
        pmd1
          { Datapath.default_config with
            Datapath.emc_enabled = false;
            mask_cache_capacity = Some 256 } );
    ( "datapath-flow-limit",
      150,
      Synchronous,
      fun () ->
        (* a flow limit this small evicts on most installs, so the walk
           results are re-walked mid-batch, with and without the
           subtable array compacting (the generation moving) *)
        pmd1
          { Datapath.default_config with
            Datapath.megaflow =
              { Megaflow.default_config with Megaflow.max_entries = 6 } } );
    ( "datapath-mask-limit",
      150,
      Synchronous,
      fun () ->
        (* past 4 masks, installs fall back to exact-match megaflows *)
        pmd1
          { Datapath.default_config with Datapath.mask_limit = Some 4 } );
    ( "datapath-tiny-emc",
      150,
      Synchronous,
      fun () ->
        (* four slots, every flow inserted: in-batch inserts overwrite
           the slots of phase-P hits, whose packets are then walked
           alone *)
        pmd1
          { Datapath.default_config with
            Datapath.emc_capacity = 4;
            emc_insert_inv_prob = 1 } );
    ( "datapath-tiny-emc-deferred",
      150,
      Deferred,
      fun () ->
        pmd1
          { Datapath.default_config with
            Datapath.emc_capacity = 4;
            emc_insert_inv_prob = 1;
            upcall_queue = Upcall_queue.bounded 8 } );
    ( "pmd-4",
      80,
      Synchronous,
      fun () ->
        Dataplane.pmd
          ~config:{ Pmd.default_config with Pmd.n_shards = 4; parallel = false }
          () );
    ( "cacheless",
      100,
      No_megaflow_cache,
      fun () -> Pi_mitigation.Cacheless.dataplane () ) ]

let suite =
  List.map
    (fun (label, count, mode, backend) ->
      qtest ~count
        (Printf.sprintf "%s: process_batch ≡ per-packet fold" label)
        gen_case (differential mode backend))
    backend_cases
