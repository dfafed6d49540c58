(** Exact-match (microflow) cache.

    The first fast-path layer: a fixed-capacity, direct-mapped,
    probabilistically-inserted cache from full flow keys to a cached
    value (here: a megaflow-cache entry). Modelled on the OVS EMC:
    8192 entries, insertion probability 1/[insert_inv_prob].

    The cache is deliberately small: under attack, the adversary's
    thousands of live covert flows thrash it, which is what exposes
    benign traffic to the expensive megaflow lookup. *)

type 'a t

val create :
  ?capacity:int -> ?insert_inv_prob:int -> ?valid:('a -> bool) ->
  Pi_pkt.Prng.t -> unit -> 'a t
(** [capacity] (default 8192) is rounded up to a power of two;
    [insert_inv_prob] (default 4) is the [1/p] insertion probability
    denominator — 1 inserts always. [valid] (default: accept all) is
    the cached-value validity predicate consulted on every hit; it
    lives here rather than on {!lookup} so the per-packet call carries
    no closure-option allocation. *)

val capacity : 'a t -> int

val lookup : 'a t -> Pi_classifier.Flow.t -> 'a option
(** Exact-match hit or nothing; allocation-free (the returned option is
    the stored one). Updates hit/miss counters. When the create-time
    [valid] predicate rejects the cached value (a stale reference to an
    evicted megaflow), the lookup counts as a {e miss} — not a hit —
    and the dead slot is evicted on the spot, so EMC hit-rate statistics
    reflect only lookups that actually short-circuited classification. *)

val probe : 'a t -> Pi_classifier.Flow.t -> 'a option
(** Pure {!lookup}: same answer (a dead slot is [None]), but no hit/miss
    statistics and no dead-slot reclamation — the cache is untouched.
    The batch path probes the whole burst up front and replays the
    bookkeeping in packet order at completion ({!commit_hit}, or a real
    {!lookup} once the cache may have been written). Allocation-free. *)

val commit_hit : 'a t -> unit
(** Count one hit (statistics only) — the completion-time half of a pure
    {!probe} hit. Only a faithful replay while no insert has run since
    the probe; after a write, re-run {!lookup} instead. *)

val lookup_batch :
  'a t -> Pi_classifier.Flow.t array -> n:int -> out:'a option array ->
  miss_idx:int array -> int
(** Pure probe of packets [0, n): [out.(i)] receives {!probe}'s answer,
    the miss positions land densely in [miss_idx], and the miss count is
    returned. Allocation-free. *)

val insert : 'a t -> Pi_classifier.Flow.t -> 'a -> unit
(** Probabilistic insert: with probability [1/insert_inv_prob] the
    key's slot is overwritten (evicting any previous occupant). *)

val insert_stored : 'a t -> Pi_classifier.Flow.t -> 'a option -> unit
(** {!insert} of a value the caller already holds boxed, e.g. the
    megaflow arena's stored [Some entry] that a lookup returned: the
    option itself is stored, so the insert allocates nothing. Draws the
    same sampling decision as {!insert}. Raises [Invalid_argument] on
    [None]. *)

val insert_forced : 'a t -> Pi_classifier.Flow.t -> 'a -> unit
(** Insert regardless of the sampling probability. A slot that already
    holds this very key (physically) and value is left untouched. *)

val invalidate_if : 'a t -> ('a -> bool) -> int
(** Drop entries whose value satisfies the predicate; returns count. *)

val clear : 'a t -> unit

val occupancy : 'a t -> int
(** Number of occupied slots. *)

val hits : 'a t -> int
val misses : 'a t -> int
val reset_stats : 'a t -> unit
