(** A registry of named counters, gauges and histograms.

    The registry stores no count of its own. Each counter and gauge is a
    named reader of a field that the structure counting the event owns
    ([Emc.hits], [Megaflow.misses], [Datapath.n_processed], …), so the
    registry, [Dataplane.stats], [dpctl] and the JSON snapshot read one
    store, and a [reset_stats] on that store resets every view.
    Histograms are the exception: a distribution has no other store, so
    the registry owns it, and a histogram lookup is get-or-create.

    A name registered as one instrument type raises [Invalid_argument]
    when requested as another. *)

type t

val create : unit -> t

(** {1 Counters and gauges} *)

val counter : t -> string -> (unit -> int) -> unit
(** [counter t name read] names [read] as the counter [name]: every
    enumeration and lookup calls it. Raises [Invalid_argument] if [name]
    is already registered. *)

val gauge : t -> string -> (unit -> float) -> unit
(** The same for a point-in-time float gauge. *)

(** {1 Histograms} *)

val histogram :
  ?lo:float -> ?growth:float -> ?n_buckets:int -> t -> string -> Histogram.t
(** Get or create a log-scale {!Histogram} (bucket options are used only
    on first creation). *)

(** {1 Enumeration (sorted by name — export is deterministic)} *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val histograms : t -> (string * Histogram.t) list

val find_counter : t -> string -> int option
val find_gauge : t -> string -> float option
val find_histogram : t -> string -> Histogram.t option
