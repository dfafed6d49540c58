(** A reusable packet batch: the unit of work of the batch-first
    dataplane API.

    Fixed-capacity parallel arrays — flows and packet lengths in,
    actions and per-packet outcome fields out — so a steady stream of
    bursts allocates nothing: the batch is filled, processed
    ([Dataplane.process_batch]), and its result columns read back in
    place. The [sc_*] columns are walk scratch owned by
    [Datapath.process_batch] (the EMC-miss set and the precomputed
    subtable-major walk results); callers never touch them.

    The record is exposed so the hot loops (datapath completion, PMD
    scatter) can read and write columns directly without accessor-call
    overhead. Treat [n] and the input columns as the caller's, the
    result columns as the dataplane's. *)

type t = {
  cap : int;
  mutable n : int;  (** packets in use: slots [0, n) *)
  flows : Pi_classifier.Flow.t array;
  pkt_lens : int array;
  actions : Action.t array;
  emc_hit : bool array;
  mf_probes : int array;
  mf_hit : bool array;
  upcall : bool array;
  slow_probes : int array;
  mf : Megaflow.entry option array;
      (** Per packet: the megaflow entry that served it (an EMC or a
          megaflow hit) or that its synchronous upcall installed; [None]
          for a deferred-mode miss (the pending drop) and on a backend
          with no megaflow cache. The dataplane writes it beside the
          other result columns; {!set_result} leaves it alone, so a
          backend that has no entry must write [None] itself. *)
  sc_miss : int array;
  sc_emc : Megaflow.entry option array;
  sc_entry : Megaflow.entry option array;
  sc_probes : int array;
  sc_tbl : int array;
}

val create : capacity:int -> t
(** All columns sized [capacity]; [n = 0]. *)

val capacity : t -> int

val length : t -> int

val clear : t -> unit
(** Reset to empty ([n = 0]); columns keep their storage. *)

val push : t -> Pi_classifier.Flow.t -> pkt_len:int -> unit
(** Append one packet. @raise Invalid_argument when full. *)

val fill : t -> (Pi_classifier.Flow.t * int) array -> unit
(** [clear] + [push] each [(flow, pkt_len)] pair.
    @raise Invalid_argument if the array exceeds the capacity. *)

val flow : t -> int -> Pi_classifier.Flow.t
val pkt_len : t -> int -> int
val action : t -> int -> Action.t

val set_result :
  t -> int -> Action.t -> emc_hit:bool -> mf_probes:int -> mf_hit:bool ->
  upcall:bool -> slow_probes:int -> unit
(** Write slot [i]'s result columns, all but [mf]. Allocation-free. *)

val blit_result : t -> int -> t -> int -> unit
(** [blit_result src m dst i] copies slot [m]'s results of [src], [mf]
    included, into slot [i] of [dst] — the PMD scatter step.
    Allocation-free. *)

val outcome : t -> int -> Cost_model.outcome
(** Materialise slot [i]'s outcome record (allocates — compat shims
    only, never the batch hot path). *)

val result : t -> int -> Action.t * Cost_model.outcome
(** Materialise slot [i]'s [(action, outcome)] pair (allocates). *)
