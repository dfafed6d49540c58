(** Sharded, batched datapath modelling OVS poll-mode-driver threads.

    Multi-queue OVS runs one PMD thread per core; the NIC's RSS hash
    steers each flow to exactly one queue, and every PMD owns a private
    EMC, megaflow cache and mask cache. A [Pmd.t] is an array of
    [n_shards] independent {!Datapath.t}s plus the steering function and
    rx-batch cost accounting.

    Two execution modes ({!mode}):

    - {!Deterministic} — the conformance oracle. A 1-shard Pmd is
      bit-for-bit the plain {!Datapath} it wraps (same PRNG stream,
      same telemetry). With several shards, sequential and parallel
      (one short-lived OCaml 5 domain per shard {e per batch})
      execution are bit-for-bit identical, because shards share no
      mutable state.

    - {!Pipeline} — run to completion. Persistent worker domains (one
      per shard) are created at {!create} time and fed through
      fixed-capacity {!Spsc_ring}s; with a deferred upcall queue, a
      dedicated handler domain classifies misses in the shards' slow
      paths and ships verdicts back over completion rings. Shard caches
      evolve bit-for-bit as in deterministic mode (same PRNG
      substreams, same steering, same burst chopping), so
      {!process_batch} results are positionally identical under a
      synchronous upcall configuration; only wall-clock differs. See
      DESIGN.md §14 for the ordering contract and the deferred-mode
      caveats. *)

type mode =
  | Deterministic
      (** every batch runs to completion inside {!process_batch},
          spawning throwaway domains when [parallel] *)
  | Pipeline
      (** persistent per-shard worker domains behind SPSC rings; the
          real-time mode measured by [bench wallclock] *)

type config = {
  n_shards : int;  (** number of PMD threads / cores; >= 1 *)
  batch_size : int;
      (** rx burst size (OVS [NETDEV_MAX_BURST] = 32); >= 1 *)
  parallel : bool;
      (** deterministic mode only: run shards on domains when
          [n_shards > 1]; results are identical either way, only
          wall-clock differs. Every multi-shard {!process_batch} call
          then spawns and joins one domain per busy shard, which costs
          more than a small burst's work: callers that send many small
          bursts ({!Pi_sim.Scenario}) set it [false]. Ignored by
          {!Pipeline} (always concurrent). *)
  batch_cycles : float;
      (** fixed model cost charged once per rx burst, amortised over up
          to [batch_size] packets; 0 disables batch accounting *)
  mode : mode;  (** execution engine; {!Deterministic} is the default *)
  rx_ring : int;
      (** pipeline only: per-shard rx ring capacity (rounded up to a
          power of two, clamped so a full burst always fits);
          default 1024 *)
  upcall_ring : int;
      (** pipeline only: capacity of each worker→handler upcall ring
          and its handler→worker completion ring; default 256 *)
  dp : Datapath.config;  (** per-shard datapath configuration *)
}

val default_config : config
(** [n_shards = 1], [batch_size = 32], [parallel = true],
    [batch_cycles = 0.], [mode = Deterministic], [rx_ring = 1024],
    [upcall_ring = 256], [dp = Datapath.default_config]. *)

type t

val create :
  ?config:config ->
  ?tss_config:Pi_classifier.Tss.config ->
  ?telemetry:Pi_telemetry.Ctx.t ->
  ?provenance:Provenance.registry ->
  Pi_pkt.Prng.t ->
  unit ->
  t
(** With one shard, [rng] and the [telemetry] context are handed to the
    single datapath unchanged — the result is indistinguishable from
    [Datapath.create]. With several shards each datapath gets an
    independent PRNG substream ({!Pi_pkt.Prng.split}) and, when the
    context carries a registry, a {e private} registry (see
    {!shard_metrics}) that names that shard's counts, since a registry
    names one datapath's; the context's tracer is ignored in that
    case.

    [provenance] hands every shard the same (read-during-processing)
    rule registry; each shard's datapath builds its own private
    {!Provenance.store} (see {!provenance}), so attribution is
    domain-safe exactly like the metrics registries.

    Under [mode = Pipeline] this also spawns the persistent worker
    domains (and, with a deferred upcall queue, the handler domain);
    call {!close} when done with the Pmd or the domains spin forever.
    All pipeline entry points ({!process}, {!process_batch},
    {!service_upcalls}, {!install_rules}, {!revalidate},
    {!reset_stats}, {!close}) must be called from one driving domain —
    the SPSC rings assume a single producer.

    The pre-0.5 [?metrics]/[?tracer] arguments were removed, as
    CHANGES.md 0.5.0 announced; pass a [telemetry] context instead. *)

val config : t -> config
val n_shards : t -> int

val shard : t -> int -> Datapath.t
(** The [i]th shard's datapath. Raises [Invalid_argument] out of range.
    In pipeline mode, only inspect it while the pipeline is quiescent
    (after {!process_batch} plus, under a deferred queue,
    {!service_upcalls}). *)

val shard_metrics : t -> int -> Pi_telemetry.Metrics.t option
(** The registry shard [i] reports into (the shared one when
    [n_shards = 1], a private one otherwise, [None] if telemetry is
    off). *)

val shard_perf : t -> int -> Pi_telemetry.Perf.t option
(** Shard [i]'s per-stage cycle profile: a view over the shard's own
    counts ({!Datapath.perf_counts} plus its rx bursts, {!n_batches}),
    priced with the datapath's cost model and this Pmd's
    [batch_cycles]. Always [Some]; it follows {!reset_stats}. Merge with
    {!Pi_telemetry.Perf.merge} for the whole-dataplane view. Raises
    [Invalid_argument] out of range. Same quiescence caveat as
    {!shard}. *)

val provenance : t -> Provenance.store list
(** All shard stores, in shard order (empty when provenance is off) —
    feed to {!Provenance.report}. *)

val shard_of : t -> Pi_classifier.Flow.t -> int
(** RSS-style steering: which shard owns this flow. Uses a remixed hash
    independent of [Flow.hash]'s low bits (which index the EMC), so
    power-of-two shard counts do not strip cache entropy. *)

val shard_for : t -> Pi_classifier.Flow.t -> Datapath.t
(** [shard t (shard_of t flow)]. *)

val install_rules : t -> Action.t Pi_classifier.Rule.t list -> unit
(** Install into every shard's slowpath (OpenFlow tables are shared
    across PMDs). In pipeline mode, quiesces the workers first. *)

val remove_rules : t -> (Action.t Pi_classifier.Rule.t -> bool) -> int
(** Remove from every shard; returns the count of distinct logical
    rules removed (rules are replicated per shard, so the per-shard
    count, not the sum). *)

val process :
  t -> now:float -> Pi_classifier.Flow.t -> pkt_len:int ->
  Action.t * Cost_model.outcome
(** Steer one packet to its shard and process it there. No batch
    overhead is charged — single-packet processing is the degenerate
    burst used by the parity tests. In pipeline mode the packet runs on
    the shard's worker domain (same caches, same PRNG stream) and the
    call blocks until it completes. *)

val process_batch : t -> Batch.t -> now:float -> unit
(** Process a {!Batch} in one rx round: packets are steered to their
    shards (preserving arrival order within a shard), chopped into
    bursts of [batch_size], and each burst — including a short final
    one — is charged [batch_cycles] once and classified with the
    shard's vectorised subtable-major walk
    ({!Datapath.process_batch}). Result columns, {!Batch.t.mf} included,
    are written back at each packet's batch position. An empty batch is a no-op; the walk
    and scatter allocate nothing on the minor heap.

    Deterministic mode runs shards inline (on fresh domains when
    [parallel && n_shards > 1]). Pipeline mode enqueues the bursts on
    the worker rings and blocks until every packet is processed — the
    same barrier contract, so the result columns are always complete;
    with a deferred upcall queue, misses may still be resolving on the
    handler domain when this returns (see {!service_upcalls}). *)

val process_burst :
  t -> now:float -> (Pi_classifier.Flow.t * int) array ->
  (Action.t * Cost_model.outcome) array
(** Tuple-array compatibility surface over {!process_batch}: fill a
    reusable internal batch, process it, and materialise result [i] for
    packet [i]. Allocates the result array and outcome records —
    callers on the hot path should hold a {!Batch.t} and call
    {!process_batch} directly. *)

val revalidate : t -> now:float -> int
(** Run every shard's revalidator; returns total evictions. Pipeline
    mode quiesces first — revalidation never races packet
    processing. *)

val service_upcalls : t -> now:float -> int
(** Deterministic mode: run every shard's upcall handler
    ({!Datapath.service_upcalls}); returns the total serviced, each
    shard bounded by its own handler budget.

    Pipeline mode: the dedicated handler domain drains continuously
    (handler budgets do not apply); this call waits until every
    deferred upcall has been resolved {e and installed} and returns how
    many landed since the previous call — the quiescence point after
    which mask/megaflow counts are exact. *)

val close : t -> unit
(** Shut the pipeline down: quiesce, stop and join the worker and
    handler domains. Idempotent; a no-op in deterministic mode. Using
    {!process}/{!process_batch} after [close] raises
    [Invalid_argument]. *)

val cycles_used : t -> float
(** Summed shard cycles, including amortised batch overhead. *)

val handler_cycles_used : t -> float
(** Summed deferred-upcall handler cycles across shards. *)

val telemetry : t -> Pi_telemetry.Ctx.t
(** The context given at creation (the shared one — per-shard private
    registries are reached through {!shard_metrics}). *)

val batch_overhead_cycles : t -> float
val n_batches : t -> int
val n_processed : t -> int
val n_upcalls : t -> int

val upcall_drops : t -> int
(** Total packets dropped on full upcall queues across shards. *)

val pending_upcalls : t -> int

val n_masks : t -> int
(** Total masks across shards (each PMD grows its own mask set under
    attack). *)

val n_megaflows : t -> int

val per_shard_masks : t -> int array
val per_shard_cycles : t -> float array

val reset_stats : t -> unit
(** Zero every shard's counts ({!Datapath.reset_stats}) and the batch
    accounting; each shard's registry counters read those counts, so
    they follow. Pipeline mode
    quiesces first, so no in-flight work leaks into the next
    measurement window; per {!Datapath.reset_stats}, pending deferred
    upcalls are drained, not carried over. *)
