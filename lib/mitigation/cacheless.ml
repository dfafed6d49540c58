open Pi_classifier

type engine =
  | Tss_engine
  | Dtree_engine of int

type dtree_state = {
  leaf_size : int;
  mutable rules : Pi_ovs.Action.t Rule.t list;
  mutable tree : Pi_ovs.Action.t Dtree.t;
}

type backend =
  | Tss of Pi_ovs.Action.t Tss.t
  | Dtree of dtree_state

type t = {
  engine : engine;
  backend : backend;
  cost : Pi_ovs.Cost_model.t;
  tss_batch : Pi_ovs.Action.t Tss.batch;
  tss_flow : Flow.t array;
      (* one-slot lookup scratch for the Tss engine: each packet is a
         classifier batch of one *)
  mutable cycles : float;
  mutable n_processed : int;
}

let create ?(engine = Tss_engine) ?config ?(cost = Pi_ovs.Cost_model.default)
    () =
  let backend =
    match engine with
    | Tss_engine ->
      let cls =
        match config with
        | Some c -> Tss.create ~config:c ()
        | None -> Tss.create ()
      in
      Tss cls
    | Dtree_engine leaf_size ->
      Dtree { leaf_size; rules = []; tree = Dtree.build ~leaf_size [] }
  in
  { engine; backend; cost; tss_batch = Tss.batch ~capacity:1;
    tss_flow = [| Flow.make () |]; cycles = 0.; n_processed = 0 }

let engine t = t.engine

let recompile d = d.tree <- Dtree.build ~leaf_size:d.leaf_size d.rules

let install_rules t rules =
  match t.backend with
  | Tss cls -> List.iter (Tss.insert cls) rules
  | Dtree d ->
    d.rules <- d.rules @ rules;
    recompile d

let remove_rules t pred =
  match t.backend with
  | Tss cls -> Tss.remove cls pred
  | Dtree d ->
    let keep, drop = List.partition (fun r -> not (pred r)) d.rules in
    d.rules <- keep;
    recompile d;
    List.length drop

let one_idx = [| 0 |]

let process t flow ~pkt_len =
  t.n_processed <- t.n_processed + 1;
  let rule, work =
    match t.backend with
    | Tss cls ->
      (* nothing here caches, so the slot's megaflow mask goes unread *)
      t.tss_flow.(0) <- flow;
      Tss.find_wc_batch cls t.tss_batch t.tss_flow ~idx:one_idx ~n:1;
      (Tss.batch_rule t.tss_batch 0, Tss.batch_probes t.tss_batch 0)
    | Dtree d -> Dtree.lookup_counting d.tree flow
  in
  let action =
    match rule with
    | Some rule -> rule.Rule.action
    | None -> Pi_ovs.Action.Drop
  in
  let outcome =
    { Pi_ovs.Cost_model.emc_hit = false; mf_probes = work; mf_hit = true;
      upcall = false; slow_probes = 0; pkt_len }
  in
  t.cycles <- t.cycles +. Pi_ovs.Cost_model.cycles t.cost outcome;
  (action, outcome)

let cycles_used t = t.cycles
let n_processed t = t.n_processed

let n_subtables t =
  match t.backend with
  | Tss cls -> Tss.n_subtables cls
  | Dtree d -> Dtree.n_nodes d.tree

let reset_stats t =
  t.cycles <- 0.;
  t.n_processed <- 0

(* A conforming {!Pi_ovs.Dataplane} backend: one shard, no EMC, no
   megaflow cache, no upcall queue — every cache-shaped statistic is
   honestly zero, which is the point of the design. *)
let dataplane ?engine ?config ?cost () : Pi_ovs.Dataplane.backend =
  (module struct
    type nonrec t = { cl : t; ctx : Pi_telemetry.Ctx.t }

    let name = "cacheless"

    let create ?telemetry ?provenance _rng () =
      (* No cache means nothing to attribute: there are no megaflows,
         no masks and no upcalls, so a provenance registry has nothing
         to record and is accepted-and-ignored (the conformance suite
         checks enabling it changes nothing). *)
      ignore (provenance : Pi_ovs.Provenance.registry option);
      let ctx = Option.value telemetry ~default:Pi_telemetry.Ctx.empty in
      let cl = create ?engine ?config ?cost () in
      (* the registry's [packets], as a datapath names it, so the shard
         views count what this backend served *)
      Option.iter
        (fun m ->
          Pi_telemetry.Metrics.counter m "packets" (fun () -> cl.n_processed))
        (Pi_telemetry.Ctx.metrics ctx);
      { cl; ctx }

    let install_rules d rules = install_rules d.cl rules
    let remove_rules d pred = remove_rules d.cl pred
    let process d ~now:_ flow ~pkt_len = process d.cl flow ~pkt_len

    (* No cache hierarchy to vectorise: the batch entry is the scalar
       classifier applied per slot, writing the columns in place. No
       megaflow serves a packet, so its [mf] slot is [None]. *)
    let process_batch d (b : Pi_ovs.Batch.t) ~now =
      for i = 0 to b.Pi_ovs.Batch.n - 1 do
        let action, o =
          process d ~now b.Pi_ovs.Batch.flows.(i)
            ~pkt_len:b.Pi_ovs.Batch.pkt_lens.(i)
        in
        Pi_ovs.Batch.set_result b i action ~emc_hit:o.Pi_ovs.Cost_model.emc_hit
          ~mf_probes:o.Pi_ovs.Cost_model.mf_probes
          ~mf_hit:o.Pi_ovs.Cost_model.mf_hit
          ~upcall:o.Pi_ovs.Cost_model.upcall
          ~slow_probes:o.Pi_ovs.Cost_model.slow_probes;
        b.Pi_ovs.Batch.mf.(i) <- None
      done

    let process_burst d ~now pkts =
      let n = Array.length pkts in
      if n = 0 then [||]
      else begin
        let b = Pi_ovs.Batch.create ~capacity:n in
        Pi_ovs.Batch.fill b pkts;
        process_batch d b ~now;
        Array.init n (Pi_ovs.Batch.result b)
      end

    let service_upcalls _ ~now:_ = 0
    let revalidate _ ~now:_ = 0
    let close _ = ()

    let stats d =
      { Pi_ovs.Dataplane.packets = n_processed d.cl;
        upcalls = 0;
        upcall_drops = 0;
        pending_upcalls = 0;
        masks = 0;
        megaflows = 0;
        cycles = cycles_used d.cl;
        handler_cycles = 0.;
        emc_hits = 0;
        emc_misses = 0;
        emc_occupancy = 0 }

    let cycles_used d = cycles_used d.cl
    let telemetry d = d.ctx
    let reset_stats d = reset_stats d.cl
    let n_shards _ = 1
    let shard_of _ _ = 0
    let shard_masks _ = [| 0 |]
    let shard_cycles d = [| cycles_used d |]

    let shard_metrics d i =
      if i <> 0 then invalid_arg "Cacheless.shard_metrics";
      Pi_telemetry.Ctx.metrics d.ctx

    (* No cache stages to decompose: the per-packet charge is one flat
       classifier walk, so this backend does not profile. *)
    let shard_perf _ i =
      if i <> 0 then invalid_arg "Cacheless.shard_perf";
      None

    let last_megaflow _ ~shard:_ = None
    let emc_insert_forced _ _ _ = ()
    let provenance _ = []

    let shard_flows _ i =
      if i <> 0 then invalid_arg "Cacheless.shard_flows";
      []

    let shard_mask_stats _ i =
      if i <> 0 then invalid_arg "Cacheless.shard_mask_stats";
      []
  end)
