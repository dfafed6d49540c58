(** The datapath: microflow cache → megaflow cache → slow-path upcall,
    glued together exactly as in the OVS fast/slow path architecture the
    paper describes (§2).

    {!process_batch} classifies a burst of packets (and {!process} one
    packet, as a burst of one), updates every cache layer, and reports
    each packet's precise {!Cost_model.outcome}, from which simulations
    derive CPU consumption and forwarding capacity. *)

type config = {
  emc_enabled : bool;
  emc_capacity : int;
  emc_insert_inv_prob : int;
  megaflow : Megaflow.config;
  cost : Cost_model.t;
  mask_limit : int option;
      (** mitigation: once this many distinct megaflow masks exist, new
          mask shapes fall back to exact-match megaflows *)
  megaflow_transform : (Pi_classifier.Mask.t -> Pi_classifier.Mask.t) option;
      (** mitigation: narrow slow-path megaflow masks before install
          (e.g. {!Pi_mitigation.Heuristics.coarsen}); narrowing is always
          sound. The argument may be borrowed from the slow path's
          scratch: the function may return it but must not keep it. *)
  mask_cache_capacity : int option;
      (** kernel-datapath flavour: route megaflow lookups through a
          {!Mask_cache} of this size (typically 256, combined with
          [emc_enabled = false]) *)
  rank_subtables : bool;
      (** userspace-dpcls flavour: each revalidation reorders the
          megaflow subtables by hit count (OVS's pvector ranking) *)
  upcall_queue : Upcall_queue.config;
      (** the fast-path→slow-path channel. The default (unbounded, no
          handler budget) services every upcall inline — bit-for-bit
          the historical synchronous datapath. A bounded depth defers
          misses to {!service_upcalls} and drops packets on overflow
          (see {!Upcall_queue}). *)
}

val default_config : config

type t

val create :
  ?config:config -> ?tss_config:Pi_classifier.Tss.config ->
  ?telemetry:Pi_telemetry.Ctx.t -> ?provenance:Provenance.registry ->
  Pi_pkt.Prng.t -> unit -> t
(** [tss_config] configures the slow-path classifier's un-wildcarding
    behaviour (see {!Pi_classifier.Tss.config}).

    [telemetry] attaches a {!Pi_telemetry.Ctx.t}. With a registry,
    [create] names every stage's counts in it, once: counters [packets]
    ({!n_processed}), [emc_hit]/[emc_miss] ({!Emc.hits}/{!Emc.misses}),
    [mf_hit]/[mf_miss]/[mf_probes] ({!Megaflow.hits}/{!Megaflow.misses}/
    {!Megaflow.total_probes}), [mask_created]/[megaflow_evicted]
    ({!Megaflow.masks_created}/{!Megaflow.evicted}),
    [upcall]/[slow_probes] ({!n_upcalls}/{!n_slow_probes}), plus
    [upcall_drops] ({!upcall_drops}) when the upcall queue is bounded;
    gauges [n_masks] and [n_megaflows] ({!n_masks}/{!n_megaflows}). Each
    reads its structure's field, so the registry always agrees with the
    accessors and follows {!reset_stats}. The registry also owns three
    histograms: [cycles_per_packet], [mf_probes_per_lookup] and
    [upcall_cycles]. A registry names one datapath: a second [create]
    on it raises [Invalid_argument]. With a tracer it
    additionally records per-event traces (EMC/megaflow hits, upcalls,
    queue overflow drops, mask creation, evictions, revalidator sweeps).
    Defaults to off, with no change in behaviour or cost accounting.

    [provenance] attaches a rule registry and builds a private
    {!Provenance.store}: upcalls stamp their megaflows (and minted
    masks) with an {!Provenance.origin}, and every packet is charged to
    its ingress port (with [port<i>/...] instruments when [telemetry]
    carries a registry). Defaults to off, with no change in behaviour,
    cost accounting or the allocation profile of the EMC hit path.

    The pre-0.5 [?metrics]/[?tracer] arguments were removed, as
    CHANGES.md 0.5.0 announced; pass a [telemetry] context instead. *)

val config : t -> config
val slowpath : t -> Slowpath.t
val megaflow : t -> Megaflow.t
val emc : t -> Megaflow.entry Emc.t
val mask_cache : t -> Mask_cache.t option

val install_rules : t -> Action.t Pi_classifier.Rule.t list -> unit
(** Install flow-table rules in the slow path. Cached megaflows from
    earlier revisions are evicted at the next {!revalidate} — OVS's
    revalidation on policy change. A change that finds the megaflow
    cache empty leaves nothing to evict, so it does not by itself make
    the next {!revalidate} sweep. *)

val remove_rules : t -> (Action.t Pi_classifier.Rule.t -> bool) -> int

val process :
  t -> now:float -> Pi_classifier.Flow.t -> pkt_len:int ->
  Action.t * Cost_model.outcome
(** Classify one packet through the cache hierarchy: {!process_batch}
    over a batch of one that the datapath owns, so a packet gets the
    same result either way.

    With the default synchronous upcall queue, a double miss classifies
    in the slow path inline and returns its verdict. With a bounded
    queue the miss instead posts an upcall (one per packet, duplicates
    included — the kernel's per-packet Netlink channel) and returns
    [Action.Drop] with an outcome charging only the fast-path work; if
    the queue is full the upcall itself is dropped and counted in
    {!upcall_drops}. Deferred upcalls resolve in {!service_upcalls}. *)

val process_batch : t -> Batch.t -> now:float -> unit
(** Classify a whole {!Batch} through the cache hierarchy, writing each
    packet's action and outcome columns back into the batch. This is
    the datapath's only classification path.

    One vectorised EMC probe pass carves out the miss set, one
    {!Megaflow.walk_batch} walk resolves it (subtable-major, OVS dpcls
    style, loading each subtable once per batch), and a completion pass
    replays the per-packet bookkeeping in strict packet order. Results
    are bit-for-bit those of running the packets one at a time — same
    actions and outcomes, same megaflows minted, same mask counts, same
    EMC insertion RNG draws, same traces. Two guards keep that
    guarantee: a megaflow a mid-batch synchronous upcall installs is
    patched into the pending packets' walk results
    ({!Megaflow.patch_walk}), and a packet whose EMC hit went stale
    mid-batch is walked alone. Synchronous upcalls are classified in
    chunks of up to {!Slowpath.chunk} walk misses with one
    subtable-major walk, and each installs straight from its slot of
    the slow path's scratch; only packets that do upcall are counted,
    so the counters are those of one upcall per such packet. With
    deferred upcalls, misses enqueue as
    described under {!process} and resolve at the next
    {!service_upcalls}, which classifies queued misses in slow-path
    batches of its own.

    The batch hit and walk paths allocate nothing on the minor heap. *)

val pop_pending_upcall : t -> (Pi_classifier.Flow.t * int * float) option
(** Dequeue the oldest deferred upcall as [(flow, pkt_len, enqueued_at)]
    without servicing it. The PMD pipeline's forwarding hook: the shard
    worker moves items from this queue onto the SPSC ring feeding the
    dedicated handler domain, preserving {!Upcall_queue}'s depth bound
    and drop accounting at the enqueue side. *)

val apply_verdict :
  t -> now:float -> Pi_classifier.Flow.t -> pkt_len:int ->
  Slowpath.verdict -> unit
(** Apply a slow-path verdict obtained for a deferred upcall: count the
    upcall, install the megaflow (mitigation hooks included) and EMC
    entry, and charge handler cycles — everything {!service_upcalls}
    does after {!Slowpath.upcall} returns. Lets the pipeline split the
    halves across domains: the handler domain classifies (it owns the
    slow path), the shard worker applies the verdict (it owns the
    caches). *)

val service_upcalls : t -> now:float -> int
(** Run the slow-path handler: drain up to the configured per-tick
    handler budget of pending upcalls, classifying each and installing
    its megaflow (and EMC entry). Returns the number serviced. Handler
    work is charged to {!handler_cycles_used}, not {!cycles_used} —
    handler threads run beside the fast path. A no-op (returns 0) under
    the default synchronous configuration. *)

val last_megaflow : t -> Megaflow.entry option
(** The {!Batch.t.mf} slot of the last packet of the last batch
    {!process_batch} ran (a {!process} call is a batch of one): the
    entry that served or was installed for that packet, [None] for a
    deferred miss or before the first packet. Reads the caller's batch
    as it is now, so it is only meaningful until that batch is refilled.
    No library code calls it; hold a {!Batch.t} and read [mf] for every
    packet instead. *)

val revalidate : t -> now:float -> int
(** Run the revalidator: evict idle and stale-revision megaflows, drop
    microflow-cache entries pointing at dead megaflows. Returns evicted
    megaflow count.

    Each sweep runs only when it might change something, with the same
    result as if it always ran. The megaflow sweep runs when the rules
    changed since the last one (unless the change found the cache
    empty), or when some entry may be idle: [now] is more than the idle
    timeout past {!Megaflow.may_have_idle}'s bound or past the least
    [now] given to {!process_batch} or {!service_upcalls} since the last
    full sweep. The microflow-cache sweep runs when a megaflow died
    since the last one ({!Megaflow.deaths}). The subtable resort, the
    revalidation count ({!perf_counts}) and the [Revalidate] trace
    event happen on every call. Exact as long as nothing stamps a megaflow's [last_used]
    below both bounds (see {!Megaflow.entry}). *)

val cycles_used : t -> float
(** Cumulative CPU cycles consumed by processed packets since the last
    {!reset_stats}, per the cost model. *)

val handler_cycles_used : t -> float
(** Cycles spent servicing deferred upcalls ({!service_upcalls}); always
    0 under the synchronous default, where upcall cost lands in
    {!cycles_used} with the packet that triggered it. *)

val perf_counts : t -> batches:int -> Pi_telemetry.Perf.counts
(** The counts a per-stage profile prices, read from this datapath's
    fields, its EMC's and its megaflow cache's, since the last
    {!reset_stats}; [batches] is the caller's rx-burst count (the PMD
    shard chops bursts, not the datapath). Priced with this datapath's
    cost model ({!Pi_telemetry.Perf.v}), the stages decompose exactly
    the charge recorded in {!cycles_used} plus {!handler_cycles_used}
    (plus the caller's batch overhead): the stage sum reproduces that
    total to float rounding (the view sums per stage, the datapath
    keeps one running total). *)

val provenance : t -> Provenance.store option
(** The attribution store ([Some] exactly when [create] was given a
    [provenance] registry). *)

val n_processed : t -> int
val n_upcalls : t -> int

val n_slow_probes : t -> int
(** Slow-path subtables examined by the upcalls counted in
    {!n_upcalls}. *)

val upcall_drops : t -> int
(** Packets dropped because the bounded upcall queue was full
    ({!Upcall_queue.drops} of this datapath's queue). *)

val pending_upcalls : t -> int
(** Upcalls queued and not yet serviced. *)

val n_masks : t -> int
val n_megaflows : t -> int

val reset_stats : t -> unit
(** Resets every count this datapath, its EMC, megaflow cache, upcall
    queue and provenance ports keep ({!Provenance.reset_ports}), and
    with them every registry counter and profile that reads one; cache
    contents, registry histograms and tenant attribution are untouched.
    Pending deferred upcalls are {e drained} (discarded without being
    serviced and without counting as drops): a reset opens a fresh
    measurement window, and stale queued misses from before it must not
    have their handler work attributed inside it. *)
