(** Per-stage cycle profile: a read-only view over a shard's counts.

    The dataplane's per-packet cycle charge decomposes into pipeline
    stages (rx/steering, EMC probe, megaflow walk, slow path, batch
    overhead, revalidation), so [ovsdos dpctl pmd-perf-show] can mirror
    OVS's per-stage breakdown. A [Perf.t] stores no count of its own: it
    reads the counts the owning structures already keep (the datapath,
    its EMC and megaflow cache, the PMD shard's rx-burst count) each
    time it is read, and every stage charge is linear in those counts,
    so {!stage_cycles} evaluates [coefficient . counts] on demand. The
    packet path pays nothing for the profile beyond the counts it keeps
    anyway.

    The stage sum is exact: summed stage cycles equal the cycles the
    owning dataplane charged through its cost model (fast path + handler
    + batch overhead) up to float association — the view multiplies
    coefficients by exact event totals where the dataplane keeps one
    per-packet running total — so profile totals cross-check against
    [stats.cycles] to rounding error, while per-shard views {!merge}d
    across shards give bit-identical totals regardless of execution
    order (sequential or Domain-parallel): integer event sums commute. *)

type counts = {
  packets : int;              (** fast-path packets *)
  bytes : int;                (** their bytes (the steering charge) *)
  emc_hits : int;
  mf_hits : int;
  mf_probes : int;            (** subtables probed, summed over every walk *)
  upcalls : int;
      (** slow-path classifications: inline upcalls plus deferred
          verdicts the handler applied *)
  slow_probes : int;          (** slow-path subtables probed by [upcalls] *)
  handler_upcalls : int;      (** of [upcalls], the handler's *)
  handler_slow_probes : int;  (** of [slow_probes], the handler's *)
  handler_bytes : int;        (** bytes of the handler's upcalls *)
  batches : int;              (** charged rx bursts *)
  reval_sweeps : int;         (** revalidator calls *)
  reval_evicted : int;        (** megaflows they evicted *)
}

type t

val v :
  emc_lookup:float -> mf_probe:float -> mf_hit_fixed:float -> upcall:float ->
  slow_probe:float -> per_byte:float -> batch:float -> (unit -> counts) -> t
(** [v ~emc_lookup ... read] prices the counts [read ()] returns with
    these cost coefficients (cycles). [read] is called on every read of
    the view, never by the packet path. *)

val counts : t -> counts
(** The counts as they are now. *)

(** {2 Stages} *)

val n_stages : int

val stage_steer : int
(** rx/steering: the per-byte packet copy ([bytes * per_byte]). *)

val stage_emc : int
(** EMC probe, plus the hit fixed cost when the EMC answers. *)

val stage_mf : int
(** Megaflow TSS walk ([probes * mf_probe]), plus the hit fixed cost
    when the walk answers. *)

val stage_upcall : int
(** Slow path: inline upcalls and deferred handler verdicts. *)

val stage_reval : int
(** Revalidation (counted in [reval_sweeps]; the cost model assigns no
    cycles, so this stage stays 0 unless a model is added). *)

val stage_batch : int
(** Fixed per-rx-burst overhead. *)

val stage_name : int -> string
(** Stable lowercase stage label; raises [Invalid_argument] out of
    range. *)

(** {2 Reading} *)

val stage_cycles : t -> int -> float
val total_cycles : t -> float

val merge : t -> t -> t
(** A view over the sum of both views' counts (cross-shard
    aggregation), priced with the first one's coefficients — every
    shard of one dataplane shares its cost model. Pure integer
    addition, so the totals are independent of merge order. *)
