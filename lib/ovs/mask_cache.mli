(** The kernel-datapath mask cache.

    Kernel OVS has no exact-match microflow cache; instead it keeps a
    small (256-entry) direct-mapped array from a packet's flow hash to
    the index of the megaflow mask that matched that hash last time, so
    a stable flow pays one probe instead of a scan
    ({!Megaflow.commit_walk_hinted} consumes the hint).

    Crucially for the paper, the cache is tiny: once the covert stream
    keeps thousands of flows alive, benign hints are continually
    overwritten and most packets fall back to the full linear scan —
    the reason the kernel flavour of OVS collapses just like the
    userspace one (see the [ranking] bench experiment). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 and is rounded up to a power of two. *)

val capacity : t -> int

val hint : t -> Pi_classifier.Flow.t -> int
(** The mask index recorded for this flow's hash slot, or [-1] if none
    (an int sentinel, not an option — the hint is read on every hinted
    lookup and must not allocate). *)

val record : t -> Pi_classifier.Flow.t -> int -> unit
(** Remember which mask index matched the flow. *)

val clear : t -> unit

val generation : t -> int
val sync_generation : t -> int -> unit
(** [sync_generation t gen] empties the cache iff its recorded
    generation differs from [gen] (then remembers [gen]). Used by
    {!Megaflow.commit_walk_hinted}: whenever the megaflow subtable array is
    reordered, every cached index may point at the wrong subtable — with
    overlapping masks a stale hint could even return a {e different}
    entry than the linear scan — so all hints are dropped wholesale. *)

val note_hit : t -> unit
val note_miss : t -> unit
(** Counter hooks used by {!Megaflow.commit_walk_hinted}: a hint that led
    directly to the matching entry is a hit; everything else
    (no hint, stale hint) is a miss. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
