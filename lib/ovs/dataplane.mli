(** One dataplane interface, many backends.

    A {!S} value is a complete fast path: create it, install rules,
    push packets, service deferred upcalls, revalidate, read stats.
    {!pmd} (poll-mode threads, each shard a run-to-completion
    {!Datapath}; one shard by default) and the cache-less mitigation
    baseline ({!Pi_mitigation.Cacheless.dataplane}) both conform, so a
    scenario, benchmark or CLI written against this interface runs
    either unchanged — the [--backend] flag of [ovsdos attack] is
    exactly that.

    Backends are first-class module values ({!backend}) produced by
    constructor functions that close over their configuration; {!create}
    then instantiates one and packs it with its module into an
    existential {!t} on which the forwarders below operate. *)

(** Cumulative counters every backend exports. Backends without a given
    structure (the cache-less classifier has no EMC, no megaflow cache
    and no upcall queue) report 0 for its fields. *)
type stats = {
  packets : int;  (** packets processed *)
  upcalls : int;  (** slow-path classifications (inline or deferred) *)
  upcall_drops : int;
      (** packets dropped on a full bounded upcall queue *)
  pending_upcalls : int;  (** queued and not yet serviced *)
  masks : int;  (** distinct megaflow masks — the paper's attack gauge *)
  megaflows : int;
  cycles : float;  (** fast-path cycles per the cost model *)
  handler_cycles : float;
      (** deferred upcall-handler cycles (beside the fast path) *)
  emc_hits : int;
  emc_misses : int;
  emc_occupancy : int;
}

(** The dataplane interface proper. *)
module type S = sig
  type t

  val name : string
  (** Stable identifier ([pmd], [cacheless], ...). *)

  val create :
    ?telemetry:Pi_telemetry.Ctx.t -> ?provenance:Provenance.registry ->
    Pi_pkt.Prng.t -> unit -> t
  (** Configuration is closed over by the backend constructor; creation
      only binds the run-specific inputs — PRNG stream, telemetry
      context and provenance rule registry. Both options default to off
      with no change in behaviour. *)

  val install_rules : t -> Action.t Pi_classifier.Rule.t list -> unit
  val remove_rules : t -> (Action.t Pi_classifier.Rule.t -> bool) -> int

  val process :
    t -> now:float -> Pi_classifier.Flow.t -> pkt_len:int ->
    Action.t * Cost_model.outcome
  (** Classify one packet: {!process_batch} over a batch of one,
      without the per-burst overhead charge. The cache-hierarchy
      backends run it through that very path, so there is no separate
      per-packet classifier. For single-flow probes and one-at-a-time
      drivers; hot callers should fill a {!Batch.t} and use
      {!process_batch}. *)

  val process_batch : t -> Batch.t -> now:float -> unit
  (** One rx round over a {!Batch}: classify packets [0 .. length - 1],
      writing each packet's action and outcome columns, and its
      megaflow entry ({!Batch.t.mf}), back into the batch in place.
      Backends with batch accounting charge their per-burst overhead
      here; cache-hierarchy backends run their vectorised
      subtable-major walk. Results are bit-for-bit those of [length]
      {!process} calls. *)

  val process_burst :
    t -> now:float -> (Pi_classifier.Flow.t * int) array ->
    (Action.t * Cost_model.outcome) array
  (** Tuple-array convenience over {!process_batch}; result [i]
      corresponds to packet [i]. Allocates the result array and outcome
      records per call. *)

  val service_upcalls : t -> now:float -> int
  (** Drain deferred upcalls up to the handler budget; 0 for backends
      (or configurations) without an upcall queue. *)

  val revalidate : t -> now:float -> int

  val close : t -> unit
  (** Release any execution resources the backend owns — the pipeline
      {!Pmd} joins its persistent worker/handler domains here. Must be
      idempotent; a no-op for backends without background execution.
      Statistics stay readable after [close]. *)

  val stats : t -> stats
  val cycles_used : t -> float
  (** [ (stats t).cycles ] without building the record — hot in
      per-tick simulation loops. *)

  val telemetry : t -> Pi_telemetry.Ctx.t
  val reset_stats : t -> unit
  (** Open a fresh measurement window: zero every count {!stats}
      reports. Registry counters ({!shard_metrics}) and per-port
      provenance counts read those counts, so every view resets with
      them; cache contents, registry histograms and tenant attribution
      stay. *)

  (** {2 Shard and simulation hooks}

      What {!Pi_sim.Scenario} needs to model per-core contention and
      pace an attack stream without backend-specific code. Unsharded
      backends behave as a single shard 0. *)

  val n_shards : t -> int
  val shard_of : t -> Pi_classifier.Flow.t -> int
  val shard_masks : t -> int array
  val shard_cycles : t -> float array

  val shard_metrics : t -> int -> Pi_telemetry.Metrics.t option
  (** The registry shard [i] reports into ([None] when telemetry is
      off). Raises [Invalid_argument] out of range. *)

  val shard_perf : t -> int -> Pi_telemetry.Perf.t option
  (** Shard [i]'s per-stage cycle profile, a view over the shard's own
      counts ([None] when the backend has no stages to profile). Merge
      the shards with {!Pi_telemetry.Perf.merge} for a whole-dataplane
      view; see [ovsdos dpctl pmd-perf-show]. Raises [Invalid_argument]
      out of range. *)

  val last_megaflow : t -> shard:int -> Megaflow.entry option
  (** Shard [shard]'s {!Datapath.last_megaflow}: the {!Batch.t.mf} slot of
      the last packet of the last burst that shard ran; [None] for
      backends without a megaflow cache. No library code calls it —
      per-packet entries are in {!Batch.t.mf} after {!process_batch}. *)

  val emc_insert_forced : t -> Pi_classifier.Flow.t -> Megaflow.entry -> unit
  (** Unconditionally insert into the owning shard's EMC (bypassing
      probabilistic insertion) — the simulator's virtual-insert hook.
      A no-op for backends without an EMC. *)

  (** {2 Introspection hooks}

      What the dpctl-style CLI renders. All per-shard; unsharded
      backends answer for shard 0, cache-less backends answer empty. *)

  val provenance : t -> Provenance.store list
  (** Per-shard attribution stores, in shard order; empty when
      provenance is off (or the backend keeps none). *)

  val shard_flows : t -> int -> Megaflow.entry list
  (** Shard [i]'s live megaflow entries, in scan order ([dpctl
      dump-flows]). Raises [Invalid_argument] out of range; empty for
      backends without a megaflow cache. *)

  val shard_mask_stats : t -> int -> Megaflow.mask_stat list
  (** Shard [i]'s subtables with entry/hit counts ([dpctl dump-masks]).
      Raises [Invalid_argument] out of range; empty for backends without
      a megaflow cache. *)
end

type backend = (module S)
(** A backend with its configuration baked in, ready to instantiate. *)

(** An instantiated dataplane packed with its module. *)
type t = Packed : (module S with type t = 'a) * 'a -> t

val create :
  ?telemetry:Pi_telemetry.Ctx.t -> ?provenance:Provenance.registry ->
  backend -> Pi_pkt.Prng.t -> t

(** {2 Forwarders} — {!S}'s operations on a packed {!t}. *)

val name : t -> string
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
(** Shut down the backend's execution resources (idempotent); see
    {!S.close}. Call when done with a dataplane that may run a pipeline
    {!Pmd} — its domains otherwise keep spinning. *)

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
val emc_insert_forced : t -> Pi_classifier.Flow.t -> Megaflow.entry -> unit
val provenance : t -> Provenance.store list

val attribution : t -> Provenance.summary
(** [Provenance.report (provenance t)] — the ranked tenant/port
    attribution of everything this dataplane processed (empty when
    provenance is off). *)

val shard_flows : t -> int -> Megaflow.entry list
val shard_mask_stats : t -> int -> Megaflow.mask_stat list

(** {2 Built-in backends} *)

val pmd :
  ?config:Pmd.config -> ?tss_config:Pi_classifier.Tss.config ->
  unit -> backend
(** The sharded {!Pmd}: the cache-hierarchy backend. With the default
    one shard it runs a single {!Datapath}, the paper's OVS fast path. *)
