(** The megaflow cache: the second fast-path layer, organised by Tuple
    Space Search.

    Entries installed by the slow path are non-overlapping, so lookup
    probes one subtable per distinct mask, in mask-creation order, and
    stops at the first hit — which is why the lookup cost is linear in
    the number of masks, the algorithmic deficiency the paper attacks.
    A miss necessarily probes {e every} mask.

    That linear cost is the {e modelled} cost: probe counts, statistics
    and everything {!Cost_model} charges from them are those of a scan
    that probes every mask up to the hit. The implementation does not
    pay it in wall-clock time. The scan order is cut into fixed blocks
    of 32 consecutive subtables, and the blocks into fixed groups of 8
    (256 subtables). Each block and each group is summarised by the bits
    all of its entries constrain and agree on; a packet that fails a
    summary cannot match any entry under it, so the group or block is
    skipped and its subtables are charged as probed without being
    touched. Masks minted by one policy share most of their constrained
    bits, so under attack most groups are rejected by one compare each
    and their block summaries are never tested.

    A subtable holding a single entry (the attack's steady state: one
    covert flow per injected mask) has no hash table; it is probed by a
    direct masked compare of the flow against that entry's key. From
    two entries on, a subtable is an open-addressing hash table over
    its masked keys. The choice depends only on the entry count and is
    exact either way: results, probe counts and statistics are the
    same as if every subtable were hashed and probed.

    Revalidation drops the subtables it empties into a pool, and a mask
    minted again takes its old subtable back instead of allocating a
    new one: under mask churn, every round re-mints what the last one
    evicted. Results and statistics are those of a new subtable. *)

type entry = {
  key : Pi_classifier.Flow.t;
      (** the flow whose upcall minted the entry, not a masked copy:
          only its bits under [mask] are meaningful. Compare keys with
          {!Pi_classifier.Mask.matches}, never {!Pi_classifier.Flow.equal}. *)
  mask : Pi_classifier.Mask.t;
      (** one value per subtable, shared by all of its entries *)
  action : Action.t;
  revision : int;               (** slow-path revision that produced it *)
  created : float;
  origin : Provenance.origin option;
      (** who minted it — port / tenant / rule of the upcall that
          installed the entry ([None] when provenance is off) *)
  mutable last_used : float;
      (** stamped by the insert and by every hit. Outside this module
          it is written by {!Datapath}'s EMC hits and by the scenario's
          keep-alive touches, and never to a value below both the
          bound behind {!may_have_idle} and the least [now] the owning
          datapath has processed since its last sweep:
          {!Datapath.revalidate} skips a sweep by those bounds, so a
          smaller stamp could hide an idle entry from it *)
  mutable n_packets : int;
  mutable n_bytes : int;
  mutable alive : bool;
      (** cleared on eviction so stale microflow-cache references can be
          detected *)
}

type t

type config = {
  max_entries : int;      (** flow limit (OVS flow-limit, default 200000) *)
  idle_timeout : float;   (** seconds before an unused entry is evicted *)
}

val default_config : config

val create : ?config:config -> unit -> t

type lookup_stats = { mutable s_probes : int }
(** Caller-owned probe reporting. A commit writes the number of subtable
    probes it charged into the record the caller passed, so two walks in
    flight cannot clobber each other's count. *)

val lookup_stats : unit -> lookup_stats

(** {2 Lookup}

    There is one lookup path, split in two so {!Datapath.process_batch}
    can interleave EMC bookkeeping: a {e pure} walk over a burst of
    packets ({!walk_batch}) followed by a per-packet, packet-ordered
    commit ({!commit_walk} / {!commit_walk_hinted}) that replays the
    statistics of a sequential scan. A single packet is a burst of one.

    From two packets on the walk is subtable-major, as in OVS dpcls: it
    probes one subtable for the whole burst before touching the next,
    amortising the probe-descriptor/table loads across the burst — the
    amortisation the Tuple Space Explosion attack tries to defeat. A
    burst of one has nothing to amortise and runs a sequential scan
    instead. The choice depends only on the burst size, and the results
    are the same either way. *)

val walk_batch :
  t -> Pi_classifier.Flow.t array -> idx:int array -> n:int ->
  out_entry:entry option array -> out_probes:int array ->
  out_tbl:int array -> unit
(** Pure walk over the [n] packets [flows.(idx.(0)) ..
    flows.(idx.(n-1))]. With [n = 1] it is the sequential scan. With
    more it goes one group of blocks at a time: only the still-unresolved
    packets that pass a group's summary are tested against its block
    summaries, only those that also pass a block's summary probe its
    subtables, and a group or block no such packet passes is not touched
    at all.
    Skipped subtables still count as probed, so the results are those
    of a subtable-by-subtable walk. For each packet slot [j]:
    [out_entry.(j)] is the matching entry (the stored arena option —
    nothing is allocated), [out_probes.(j)] the probes a sequential scan
    would have paid, and [out_tbl.(j)] the matching subtable index, or
    [-1] on a miss. No statistics are touched and nothing is mutated;
    commit each packet with {!commit_walk} (or {!commit_walk_hinted}),
    and after any {!insert} in between bring the pending results up to
    date with {!patch_walk}, or they are stale. Allocation-free once
    the walk scratch has grown to the largest burst seen. *)

val patch_walk :
  t -> Pi_classifier.Flow.t array -> idx:int array -> lo:int -> n:int ->
  out_entry:entry option array -> out_probes:int array ->
  out_tbl:int array -> unit
(** Bring the {!walk_batch} results of slots [lo, n) up to date after
    one {!insert}, so they are again what a sequential scan of the
    current cache gives. Without eviction only the new entry can change
    a result, so each slot is checked against it alone: a packet it
    matches no later than the recorded position takes it, and a miss
    pays the new subtable count. After a flow-limit eviction the slots
    are walked again. Call it after each insert that lands between the
    walk and the commits. *)

val commit_walk :
  t -> lookup_stats -> entry option -> now:float -> pkt_len:int ->
  probes:int -> tbl:int -> unit
(** Replay the hit/miss bookkeeping of one packet's {!walk_batch} result
    ([entry], [probes], [tbl]) — entry usage stamps, hit/miss/probe
    counters — and report [probes] into the caller's record. *)

val commit_walk_hinted :
  t -> lookup_stats -> Mask_cache.t -> Pi_classifier.Flow.t ->
  entry option -> now:float -> pkt_len:int -> probes:int -> tbl:int ->
  entry option
(** Kernel-datapath flavour: consult the {!Mask_cache} first (a correct
    hint costs one probe), otherwise commit the walk's result and
    refresh the hint. A stale in-range hint costs its probe, exactly as
    in the kernel; a hint that never reached a subtable (out of range)
    costs nothing. The cache is invalidated first if the subtable array
    has been reordered since the hints were recorded (see
    {!generation}). The hint is read {e live}, in packet order. Returns
    the authoritative entry (the hint's on a hint hit — with
    [s_probes = 1] — otherwise the walk's, with the failed in-range
    hint's extra probe added). *)

val generation : t -> int
(** Incremented whenever subtable indices are invalidated (ranking
    resort, empty-subtable compaction, flush). Appending a new mask
    leaves existing indices valid and does not change the generation.
    {!commit_walk_hinted} uses this to drop stale {!Mask_cache} hints. *)

val has_mask : t -> Pi_classifier.Mask.t -> bool
(** O(1) mask-membership test (the [mask_limit] check), replacing a
    linear walk over {!masks}. *)

val resort_by_hits : t -> unit
(** Userspace-dpcls flavour: reorder the subtable scan so the most-hit
    masks come first (OVS's pvector ranking), halving hit counts so the
    ranking tracks recent traffic. Typically driven by the revalidator
    (see {!Datapath.config}). *)

val insert :
  t -> key:Pi_classifier.Flow.t -> mask:Pi_classifier.Mask.t ->
  action:Action.t -> revision:int -> now:float ->
  ?origin:Provenance.origin -> unit -> entry
(** Install a megaflow produced by a slow-path upcall. If the flow limit
    is exceeded, least-recently-used entries are evicted first. If an
    entry with the same masked key exists it is replaced. [origin]
    stamps the entry with its provenance.

    The entry keeps [key] itself (flows are immutable) and the mask of
    its subtable. [mask] is read, never kept: it is copied only when no
    live or pooled subtable has it, so the caller may pass a borrowed
    mask ({!Pi_classifier.Mask.Builder.borrow}). *)

val revalidate : t -> now:float -> ?keep:(entry -> bool) -> unit -> int
(** Evict idle entries ([now - last_used > idle_timeout]) and entries
    rejected by [keep] (e.g. produced by a stale slow-path revision).
    Empty subtables (masks) are dropped into the pool, replacing what
    it held before. Returns entries evicted. *)

val may_have_idle : t -> now:float -> bool
(** [false] only if no entry can be idle at [now] by the stamps this
    module wrote: the least [last_used] among the survivors of the last
    {!revalidate}, lowered by every later {!insert} to its [now]
    ([infinity] after {!flush} or a sweep that left nothing), is within
    [idle_timeout] of [now]. Hits do not lower that bound (they stamp
    the [now] of their commit), so a caller that skips sweeps by it must
    also bound the [now] of the hits it committed since, as
    {!Datapath.revalidate} does. *)

val deaths : t -> int
(** Entries killed so far (revalidation, LRU eviction, replacement by
    an insert with the same masked key, {!flush}). While it is
    unchanged, every entry that was alive before is still alive. *)

val flush : t -> unit

val n_entries : t -> int

val n_masks : t -> int
(** O(1): maintained as a counter, not a list length. *)

val masks : t -> Pi_classifier.Mask.t list
(** In scan order. *)

type mask_stat = {
  ms_mask : Pi_classifier.Mask.t;
  ms_entries : int;   (** live entries under this mask *)
  ms_hits : int;
      (** subtable hit count — decayed by {!resort_by_hits}, so it
          tracks recent traffic, like OVS's pvector priorities *)
  ms_capacity : int;
      (** slots in the subtable's flat hash table (a power of two). A
          single-entry subtable has no table and reports what a
          minimum-capacity table holding its one entry would: that
          capacity, with mean and max probe length 1 *)
  ms_mean_probe : float;
  ms_max_probe : int;
      (** mean / worst displacement-based probe length over the live
          entries (1 = every entry sits in its home slot) — the
          open-addressing health of this subtable *)
}

val subtable_stats : t -> mask_stat list
(** One {!mask_stat} per subtable, in scan order — the per-mask view of
    [ovs-appctl dpctl/dump-flows -m] / subtable ranking. *)

val entries : t -> entry list

val pp_entry : now:float -> Format.formatter -> entry -> unit
(** ovs-dpctl-style rendering:
    [ip_src=10.0.0.0/9,tp_dst=80 packets:3 bytes:300 used:4.20s actions:drop].
    As in [ovs-appctl dpctl/dump-flows], [used] is the {e age} of the
    last hit ([now - last_used]); entries never hit print [used:never].
    Entries carrying provenance append [origin(port:.. tenant:.. ..)]. *)

val dump : ?max:int -> now:float -> Format.formatter -> t -> unit
(** Print entries in scan order, one per line ([max] defaults to all) —
    the equivalent of [ovs-dpctl dump-flows] at time [now]. *)

(** {2 Counts}

    Each is the only store of its count, cumulative since creation or
    the last {!reset_stats}; a datapath's metrics registry names them
    ([mf_hit], [mf_miss], [mf_probes], [mask_created],
    [megaflow_evicted]). *)

val hits : t -> int
val misses : t -> int
val total_probes : t -> int
(** Subtable probes across all lookups. *)

val masks_created : t -> int
(** Subtables made. Evictions lower {!n_masks}, never this. *)

val evicted : t -> int
(** Entries removed by {!revalidate} or by the flow limit. *)

val reset_stats : t -> unit
(** Zero the counts above. The cache's contents stay. *)

val check : t -> (unit, string) result
(** Verify the structural invariants the lookups rely on, naming the
    first one broken: every subtable's recorded position is its scan
    index and it holds at least one entry; the mask index and the scan
    order list the same subtables; every entry shares its subtable's
    mask; a one-entry subtable's descriptor holds that entry's masked
    key; every live entry passes its block's and its group's summary, on
    bits the entry itself constrains; the entry count is the sum of the
    subtables' counts; and every pooled subtable is empty, out of the
    scan and found by its mask. O(entries); for tests. *)
