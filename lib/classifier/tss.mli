(** Tuple Space Search classifier with OVS-style staged lookup,
    prefix-trie assisted un-wildcarding and megaflow mask generation.

    Rules are grouped into {e subtables} by their wildcard mask; a
    lookup probes subtables in decreasing max-priority order, one hash
    probe each — the linear-in-#masks behaviour the paper attacks. A
    lookup ({!find_wc_batch}) also accumulates the bits it examined,
    yielding the megaflow [(key & mask, mask)] the OVS slow path would
    install: as broad as provably safe ("wildcard as many bits as
    possible"), which is exactly the property the policy-injection
    attack turns against the switch. *)

type config = {
  trie_fields : Field.t list;
      (** Fields with prefix tries. The paper's measured mask counts
          (512 and 8192) correspond to tries on the IP source address
          and the L4 ports; vanilla OVS defaults to IP fields only —
          pass a narrower list to model that (see DESIGN.md §5). *)
  check_all_tries : bool;
      (** When a trie check proves a subtable cannot match, keep
          checking the subtable's remaining trie fields and accumulate
          each field's proof bits into the megaflow. [true] reproduces
          the paper's multiplicative mask explosion; [false] models a
          short-circuiting classifier (first failing field only). *)
  staged_lookup : bool;
      (** Probe subtables stage by stage (metadata → L2 → L3 → L4) so a
          miss only un-wildcards the stages examined. *)
}

val default_config : config
(** Tries on [ip_src; ip_dst; tp_src; tp_dst], [check_all_tries = true],
    staged lookup on — the configuration that reproduces the paper. *)

val ovs_default_config : config
(** Tries on [ip_src; ip_dst] only and [check_all_tries = false] —
    models a stock OVS [prefixes=ip_dst,ip_src] configuration; used by
    ablation benches. *)

type 'a t

val create : ?config:config -> unit -> 'a t

val config : 'a t -> config

val insert : 'a t -> 'a Rule.t -> unit

val remove : 'a t -> ('a Rule.t -> bool) -> int
(** Remove every rule satisfying the predicate; returns how many. *)

(** {2 Lookup (subtable-major)}

    The classifier's only lookup. For each subtable, in probe order,
    examine every still-active packet of the batch before moving to the
    next subtable — each subtable's mask, stage sets and entry table are
    loaded once per batch instead of once per packet. A single flow is a
    batch of one, walked packet-major: it has no loads to share. *)

type 'a batch
(** Reused per-batch scratch: one un-wildcarding builder, one trie-memo
    row and one result slot per packet position. *)

val batch : capacity:int -> 'a batch

val batch_capacity : 'a batch -> int

val find_wc_batch : 'a t -> 'a batch -> Flow.t array -> idx:int array -> n:int -> unit
(** Wildcard-lookup the [n] packets [flows.(idx.(0)) ..
    flows.(idx.(n-1))] subtable-major. Results are read back with
    {!batch_rule} / {!batch_megaflow} / {!batch_probes}. Slot [j]'s
    result depends only on its own flow: it equals a one-slot call on
    [flows.(idx.(j))] (the classifier is read-only during the walk;
    every per-packet accumulator is private to its slot).

    @raise Invalid_argument if [n] exceeds the scratch capacity. *)

val batch_rule : 'a batch -> int -> 'a Rule.t option
(** Slot [j]'s highest-precedence matching rule (the stored option — no
    allocation). *)

val batch_megaflow : 'a batch -> int -> Mask.t
(** Slot [j]'s un-wildcarding result: any flow agreeing with the
    looked-up flow on these bits is guaranteed the same verdict. Each
    call returns a fresh mask, copied from the slot's accumulator. *)

val batch_megaflow_borrowed : 'a batch -> int -> Mask.t
(** {!batch_megaflow} without the copy: slot [j]'s accumulator itself
    (see {!Mask.Builder.borrow}), valid until the next {!find_wc_batch}
    on this scratch. *)

val batch_probes : 'a batch -> int -> int
(** Subtables slot [j] examined (trie skips included) — the lookup
    cost. *)

val n_rules : 'a t -> int
val n_subtables : 'a t -> int

val rules : 'a t -> 'a Rule.t list
(** All rules, in precedence order. *)

val iter : ('a Rule.t -> unit) -> 'a t -> unit
