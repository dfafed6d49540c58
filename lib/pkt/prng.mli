(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component in this repository (traffic generators,
    adversarial sequences, simulation) draws from an explicit [Prng.t] so
    that experiments are exactly reproducible from a seed.  The generator
    is splittable: independent substreams can be derived for independent
    components without sharing state. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Two generators created from the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] duplicates the current state. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val int64 : t -> int64
(** [int64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int32 : t -> int32
(** [int32 t] is a uniform 32-bit value. *)

val bits : t -> int -> int
(** [bits t n] is a uniform [n]-bit non-negative integer, [0 <= n <= 30]. *)

val bits53 : t -> int
(** [bits53 t] is a uniform 53-bit non-negative integer: the draw
    {!float} scales, as an immediate, so a caller in another module can
    scale it itself without a boxed float crossing the call. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]: [Float.of_int (bits53 t) *.
    0x1.0p-53]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples an exponential inter-arrival time. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
