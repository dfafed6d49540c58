(** Bounded queue between the fast path and the slow path.

    Real OVS does not classify a missed packet inline: the kernel (or
    PMD) datapath enqueues an {e upcall} — packet plus flow key — on a
    Netlink/handler queue, and ovs-vswitchd handler threads drain it.
    The queue is {e bounded}; when the covert stream of the policy-
    injection attack saturates it, further missed packets are dropped on
    the floor — which is precisely how the DoS manifests on the wire.

    One queue instance sits inside each {!Datapath} (one per PMD shard).
    The default configuration is {e synchronous}: no depth bound and no
    handler budget, in which case the datapath services every upcall
    inline exactly as the pre-queue code did, bit for bit. A bounded
    depth switches the datapath to deferred mode: misses enqueue, a
    per-tick handler budget drains, overflow drops (counted, traced).

    The queue enqueues one item {e per missed packet}, duplicates
    included — matching the kernel's per-packet upcalls: a burst of
    packets of one unresolved flow occupies several slots. *)

type config = {
  depth : int option;
      (** maximum queued upcalls; [None] = unbounded (synchronous) *)
  handler_budget : int option;
      (** upcalls serviced per {!Datapath.service_upcalls} call ("per
          tick"); [None] = drain everything *)
}

val default_config : config
(** [{ depth = None; handler_budget = None }] — the synchronous model. *)

val bounded : ?handler_budget:int -> int -> config
(** [bounded n] is [{ depth = Some n; handler_budget }]. Raises
    [Invalid_argument] on [n < 1] or a non-positive budget. *)

val synchronous : config -> bool
(** [true] iff the configuration implies inline servicing (no depth
    bound and no handler budget). *)

type 'a t

val create : config -> 'a t
val config : 'a t -> config

val push : 'a t -> 'a -> bool
(** Enqueue; [false] when the queue is full — the caller drops the
    packet. Overflows are counted in {!drops}. *)

val full : 'a t -> bool
(** [true] when a {!push} would be refused. *)

val drop : 'a t -> unit
(** Count one refused upcall in {!drops}: what {!push} does on a full
    queue, for a caller that checked {!full} and so never built the
    item. *)

val pop : 'a t -> 'a option

val length : 'a t -> int
(** Upcalls currently pending. *)

val drops : 'a t -> int
(** Upcalls refused because the queue was full (or discarded by
    {!clear}), since creation or the last {!reset}. The only store of
    the count: {!Datapath.upcall_drops} and a deferred datapath's
    [upcall_drops] counter read it. *)

val budget : 'a t -> int
(** The per-call service allowance: [handler_budget], or [max_int] when
    unlimited. *)

val clear : 'a t -> unit
(** Discard pending upcalls. Each discarded item is a missed packet the
    slow path will now never resolve, so they are counted in {!drops} —
    a clear is a drop burst, not an amnesty. *)

val reset : 'a t -> unit
(** Return the queue to its freshly-created state: discard pending items
    {e and} zero {!drops}, without counting the discarded items as
    drops. This is the measurement-window reset ({!Datapath.reset_stats}
    uses it): stale queued work from before the window must neither be
    serviced inside it nor show up in its drop count. *)
