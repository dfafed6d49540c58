type stats = {
  packets : int;
  upcalls : int;
  upcall_drops : int;
  pending_upcalls : int;
  masks : int;
  megaflows : int;
  cycles : float;
  handler_cycles : float;
  emc_hits : int;
  emc_misses : int;
  emc_occupancy : int;
}

module type S = sig
  type t

  val name : string

  val create :
    ?telemetry:Pi_telemetry.Ctx.t -> ?provenance:Provenance.registry ->
    Pi_pkt.Prng.t -> unit -> t
  val install_rules : t -> Action.t Pi_classifier.Rule.t list -> unit
  val remove_rules : t -> (Action.t Pi_classifier.Rule.t -> bool) -> int

  val process :
    t -> now:float -> Pi_classifier.Flow.t -> pkt_len:int ->
    Action.t * Cost_model.outcome

  val process_batch : t -> Batch.t -> now:float -> unit

  val process_burst :
    t -> now:float -> (Pi_classifier.Flow.t * int) array ->
    (Action.t * Cost_model.outcome) array

  val service_upcalls : t -> now:float -> int
  val revalidate : t -> now:float -> int
  val close : t -> unit
  val stats : t -> stats
  val cycles_used : t -> float
  val telemetry : t -> Pi_telemetry.Ctx.t
  val reset_stats : t -> unit
  val n_shards : t -> int
  val shard_of : t -> Pi_classifier.Flow.t -> int
  val shard_masks : t -> int array
  val shard_cycles : t -> float array
  val shard_metrics : t -> int -> Pi_telemetry.Metrics.t option
  val shard_perf : t -> int -> Pi_telemetry.Perf.t option
  val last_megaflow : t -> shard:int -> Megaflow.entry option
  val emc_insert_forced : t -> Pi_classifier.Flow.t -> Megaflow.entry -> unit
  val provenance : t -> Provenance.store list
  val shard_flows : t -> int -> Megaflow.entry list
  val shard_mask_stats : t -> int -> Megaflow.mask_stat list
end

type backend = (module S)

type t = Packed : (module S with type t = 'a) * 'a -> t

let create ?telemetry ?provenance (module B : S) rng =
  Packed ((module B), B.create ?telemetry ?provenance rng ())

let name (Packed ((module B), _)) = B.name
let install_rules (Packed ((module B), d)) rules = B.install_rules d rules
let remove_rules (Packed ((module B), d)) pred = B.remove_rules d pred

let process (Packed ((module B), d)) ~now flow ~pkt_len =
  B.process d ~now flow ~pkt_len

let process_batch (Packed ((module B), d)) b ~now = B.process_batch d b ~now

let process_burst (Packed ((module B), d)) ~now pkts =
  B.process_burst d ~now pkts

let service_upcalls (Packed ((module B), d)) ~now = B.service_upcalls d ~now
let revalidate (Packed ((module B), d)) ~now = B.revalidate d ~now
let close (Packed ((module B), d)) = B.close d
let stats (Packed ((module B), d)) = B.stats d
let cycles_used (Packed ((module B), d)) = B.cycles_used d
let telemetry (Packed ((module B), d)) = B.telemetry d
let reset_stats (Packed ((module B), d)) = B.reset_stats d
let n_shards (Packed ((module B), d)) = B.n_shards d
let shard_of (Packed ((module B), d)) flow = B.shard_of d flow
let shard_masks (Packed ((module B), d)) = B.shard_masks d
let shard_cycles (Packed ((module B), d)) = B.shard_cycles d
let shard_metrics (Packed ((module B), d)) i = B.shard_metrics d i
let shard_perf (Packed ((module B), d)) i = B.shard_perf d i

let emc_insert_forced (Packed ((module B), d)) flow e =
  B.emc_insert_forced d flow e

let provenance (Packed ((module B), d)) = B.provenance d
let attribution t = Provenance.report (provenance t)
let shard_flows (Packed ((module B), d)) i = B.shard_flows d i
let shard_mask_stats (Packed ((module B), d)) i = B.shard_mask_stats d i

(* --- backends --- *)

let pmd ?config ?tss_config () : backend =
  (module struct
    type t = Pmd.t

    let name = "pmd"
    let create ?telemetry ?provenance rng () =
      Pmd.create ?config ?tss_config ?telemetry ?provenance rng ()

    let install_rules = Pmd.install_rules
    let remove_rules = Pmd.remove_rules
    let process = Pmd.process
    let process_batch = Pmd.process_batch
    let process_burst = Pmd.process_burst
    let service_upcalls = Pmd.service_upcalls
    let revalidate = Pmd.revalidate
    let close = Pmd.close

    let emc_fold f d =
      let n = ref 0 in
      for s = 0 to Pmd.n_shards d - 1 do
        n := !n + f (Datapath.emc (Pmd.shard d s))
      done;
      !n

    let stats d =
      { packets = Pmd.n_processed d;
        upcalls = Pmd.n_upcalls d;
        upcall_drops = Pmd.upcall_drops d;
        pending_upcalls = Pmd.pending_upcalls d;
        masks = Pmd.n_masks d;
        megaflows = Pmd.n_megaflows d;
        cycles = Pmd.cycles_used d;
        handler_cycles = Pmd.handler_cycles_used d;
        emc_hits = emc_fold Emc.hits d;
        emc_misses = emc_fold Emc.misses d;
        emc_occupancy = emc_fold Emc.occupancy d }

    let cycles_used = Pmd.cycles_used
    let telemetry = Pmd.telemetry
    let reset_stats = Pmd.reset_stats
    let n_shards = Pmd.n_shards
    let shard_of = Pmd.shard_of
    let shard_masks = Pmd.per_shard_masks
    let shard_cycles = Pmd.per_shard_cycles
    let shard_metrics = Pmd.shard_metrics
    let shard_perf = Pmd.shard_perf

    let last_megaflow d ~shard = Datapath.last_megaflow (Pmd.shard d shard)

    let emc_insert_forced d flow e =
      Emc.insert_forced (Datapath.emc (Pmd.shard_for d flow)) flow e

    let provenance = Pmd.provenance
    let shard_flows d i = Megaflow.entries (Datapath.megaflow (Pmd.shard d i))

    let shard_mask_stats d i =
      Megaflow.subtable_stats (Datapath.megaflow (Pmd.shard d i))
  end)
