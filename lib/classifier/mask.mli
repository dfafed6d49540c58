(** Per-field wildcard masks over flow keys (the OVS "flow_wildcards" /
    "minimask" analogue).

    A mask holds, for each field, the set of bits that are matched
    (1 = significant, 0 = wildcarded), in the same unboxed native-int
    representation as {!Flow}: every probe-path operation below is
    allocation-free. Megaflow cache entries are identified by
    [(key & mask, mask)]; the number of *distinct masks* is what the
    tuple-space-search lookup cost is linear in — the quantity the
    policy-injection attack inflates. *)

type t

val empty : t
(** Matches nothing: every bit of every field wildcarded. *)

val exact : t
(** Every bit of every field significant. *)

val get : t -> Field.t -> int
(** The field's mask bits (right-aligned, non-negative). *)

val with_field : t -> Field.t -> int -> t
(** Functional update; bits beyond the field width are discarded. *)

val with_exact : t -> Field.t -> t
(** Make the whole field significant. *)

val with_prefix : t -> Field.t -> int -> t
(** [with_prefix m f n] makes the [n] most significant bits of [f]
    significant (a prefix mask). Raises [Invalid_argument] if [n] is
    outside [\[0, width f\]]. *)

val prefix_len : t -> Field.t -> int option
(** [Some n] iff the field's mask is a contiguous [n]-bit prefix.
    O(1) — a trailing-zero count, not a scan over lengths. *)

val union : t -> t -> t
(** Bitwise-or of two masks. *)

val is_subset : t -> t -> bool
(** [is_subset a b] iff every significant bit of [a] is significant in
    [b]. *)

val is_empty : t -> bool

val fields : t -> Field.t list
(** Fields with at least one significant bit. *)

val apply : t -> Flow.t -> Flow.t
(** [apply m k] zeroes the wildcarded bits of [k]. Allocates the result;
    probe paths use {!hash_masked}/{!equal_masked} instead. *)

val matches : t -> key:Flow.t -> Flow.t -> bool
(** [matches m ~key flow] iff [flow & m = key & m]. *)

val copy : t -> t
(** A mask with the same bits and storage of its own. Masks are
    immutable, so only a {!Builder.borrow}ed view ever needs one: copy
    it before keeping it past the builder's next use. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val hash_masked : t -> Flow.t -> int
(** [hash_masked m k = Flow.hash (apply m k)], fused into a single pass
    with no intermediate masked key and no allocation. *)

val equal_masked : t -> Flow.t -> Flow.t -> bool
(** [equal_masked m a b] iff [a & m = b & m], without allocating. *)

val support : t -> int array
(** Indices of the fields with at least one significant bit, ascending.
    Precomputed once per subtable so the probe-path variants below touch
    only the set fields — attack-shaped masks set 1–3 of the
    {!Field.count} fields, so this is the difference between mixing 13
    words and mixing 3 on every probe. *)

val hash_masked_on : int array -> t -> Flow.t -> int
(** [hash_masked_on (support m) m k]: like {!hash_masked} but mixing
    only the support fields. NOT equal to [hash_masked m k] — callers
    must pair inserts and probes through the same support array (a
    per-subtable invariant, which is the only way these hashes are
    used). Allocation-free. *)

val equal_masked_on : int array -> t -> Flow.t -> Flow.t -> bool
(** [equal_masked_on (support m) m a b = equal_masked m a b]: fields
    outside the support are fully wildcarded, so comparing the support
    alone is exact, not an approximation. Allocation-free. *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [ip_src/8,tp_dst/16] (prefix notation when contiguous,
    hex otherwise); [any] for the empty mask. *)

(**/**)

val unsafe_words : t -> int array
(** Internal: the backing array, one word per field index (do not
    mutate). Exposed, like [Flow.unsafe_fields], for the megaflow
    cache's mask index and probe descriptors. *)

(**/**)

(** Mutable mask accumulator used during classifier lookups to collect
    the bits that were examined (OVS "un-wildcarding"). *)
module Builder : sig
  type mask := t

  type t

  val create : unit -> t
  val reset : t -> unit
  (** Clear back to the empty mask, so one scratch builder can be reused
      across lookups without allocating. *)

  val add_mask : t -> mask -> unit

  val add_mask_on : t -> int array -> mask -> unit
  (** [add_mask_on b (support m) m] is [add_mask b m], touching only the
      support fields: the others are 0 in [m]. Like the other [_on]
      operations, it is exact only with [m]'s own support. *)

  val add_prefix : t -> Field.t -> int -> unit
  val add_exact : t -> Field.t -> unit
  val freeze : t -> mask
  (** The accumulated mask. The builder remains usable. *)

  val borrow : t -> mask
  (** The accumulator itself, viewed as a mask, with no copy: valid only
      until the builder is next reset or added to. Read it, or {!copy}
      it to keep it. *)
end
