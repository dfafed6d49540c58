(** Binary prefix tries over classifier fields, path-compressed like
    OVS's [classifier.c] tries: a run of bits with one child and no
    stored prefix is one node, compared in one step.

    Two uses, both central to the reproduced attack:

    - {b trie-assisted un-wildcarding} ({!lookup}): during a slow-path
      lookup, the trie tells the classifier how many leading bits of a
      field must be fixed in the generated megaflow to prove the packet
      could not match any stored prefix — OVS's "wildcard as many bits
      as possible" strategy. The attacker exploits exactly this: each
      divergence depth materialises a distinct megaflow mask.
    - {b complement decomposition} ({!complement}): the set of maximal
      prefixes covering everything *not* covered by the stored prefixes;
      for a single exact 8-bit value this is the 8 deny rows of the
      paper's Fig. 2b. *)

type t

val create : width:int -> t
(** An empty trie over values of [width] bits, [1 <= width <= 62]
    (values are immediate native ints). *)

val width : t -> int

val insert : t -> value:int -> len:int -> unit
(** Add a prefix of [len] leading bits of [value] (reference counted:
    inserting the same prefix twice requires removing it twice). *)

val remove : t -> value:int -> len:int -> unit
(** Remove one reference of a prefix. Raises [Invalid_argument] if the
    prefix is not present. *)

val mem : t -> value:int -> len:int -> bool

val is_empty : t -> bool

val size : t -> int
(** Number of stored prefixes (with multiplicity). *)

type lookup_result = {
  mutable plens : int;
      (** Bit [n] is set iff some stored prefix of length [n] covers the
          value ([0 <= n <= width]; bit 0 = the empty prefix). One int
          holds them all since widths are at most 62. *)
  mutable checked : int;
      (** Number of leading bits that must be un-wildcarded so that any
          value sharing them yields the same [plens] — the megaflow
          prefix length OVS installs. *)
}

val lookup : t -> int -> lookup_result

val result : unit -> lookup_result
(** A blank result, for reuse with {!lookup_into}. *)

val lookup_into : t -> int -> lookup_result -> unit
(** [lookup_into t v r] performs {!lookup} into the caller-owned
    scratch [r] without allocating. The slow path keeps one scratch per
    field per classifier and reuses it across upcalls. *)

val covers : lookup_result -> int -> bool
(** [covers r n]: some stored prefix of length [n] covers the value. *)

val longest_match : lookup_result -> int
(** Largest [n] with [covers r n], or [-1] if none (not even [/0]). *)

val complement : t -> (int * int) list
(** Maximal prefixes [(value, len)] covering the complement of the union
    of stored prefixes, ordered by increasing length then value. Empty
    if the trie covers everything; the full list partitions the
    complement exactly (property-tested). *)

val prefixes : t -> (int * int) list
(** The stored prefixes (without multiplicity), sorted. *)

val pp : Format.formatter -> t -> unit
