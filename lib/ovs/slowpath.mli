(** The slow path (ofproto): the full flow-table classifier consulted on
    flow-cache misses, and the component that generates megaflows.

    Every upcall runs a wildcard-tracking lookup
    ({!Pi_classifier.Tss.find_wc_batch}; a single upcall is a batch of
    one) and returns the verdict together with the broadest mask that is
    provably safe to cache — OVS's maximal-wildcarding strategy, the
    behaviour Fig. 2b of the paper illustrates and the attack exploits.

    The [revision] counter models revalidation: installing or removing
    rules bumps it, and the datapath revalidator evicts cached megaflows
    minted under older revisions. *)

type t

val create : ?config:Pi_classifier.Tss.config -> unit -> t
(** The slow path counts nothing: the datapath counts the upcalls it
    makes ({!Datapath.n_upcalls}) and their probes. *)

val config : t -> Pi_classifier.Tss.config

val install : t -> Action.t Pi_classifier.Rule.t list -> unit
(** Add rules (bumps the revision). *)

val remove : t -> (Action.t Pi_classifier.Rule.t -> bool) -> int
(** Remove matching rules (bumps the revision if any matched). *)

val clear : t -> unit

type verdict = {
  action : Action.t;
  megaflow : Pi_classifier.Mask.t;
  probes : int;           (** subtables the slow-path lookup examined *)
  rule_found : bool;      (** false = table miss (default drop) *)
  rule_seq : int;
      (** sequence number of the matched rule — provenance resolves it
          to a tenant/ACL rule; {!Provenance.no_rule} on a table miss *)
}

val upcall : t -> Pi_classifier.Flow.t -> verdict
(** Classify a missed flow. A table miss yields [Drop] with the
    accumulated megaflow mask, so misses are cached too. *)

val no_verdict : verdict
(** A drop/no-rule placeholder — the initial element for caller-owned
    verdict scratch arrays. *)

val upcall_batch :
  t -> Pi_classifier.Flow.t array -> idx:int array -> n:int ->
  out:verdict array -> unit
(** Classify the [n] missed flows [flows.(idx.(0)) ..
    flows.(idx.(n-1))] with one subtable-major batch walk
    ({!Pi_classifier.Tss.find_wc_batch}), writing [out.(j)] for slot
    [j]. Verdicts are bit-for-bit those of [n] sequential {!upcall}
    calls: the classifier is read-only during the walk. *)

(** {2 Borrowed slots}

    The synchronous datapath's allocation-free path: classify a chunk of
    misses into the classifier scratch, then read each slot's result in
    place. A caller can classify packets ahead and charge only those
    that turn out to upcall. *)

val chunk : int
(** Slots a {!classify} call may fill (8): the scratch's initial
    capacity, which {!classify} never grows. *)

val classify : t -> Pi_classifier.Flow.t array -> idx:int array -> n:int -> unit
(** Classify [flows.(idx.(0)) .. flows.(idx.(n-1))] into slots [0, n) of
    the scratch, counting nothing. Slot [j]'s result is the verdict
    {!upcall} would give [flows.(idx.(j))]. It stays readable until the
    next {!classify}, {!upcall} or {!upcall_batch}.
    @raise Invalid_argument if [n > chunk]. *)

val slot_action : t -> int -> Action.t
val slot_probes : t -> int -> int
val slot_rule_seq : t -> int -> int

val slot_megaflow : t -> int -> Pi_classifier.Mask.t
(** Borrowed (see {!Pi_classifier.Mask.Builder.borrow}): valid until
    the scratch is next used. {!Megaflow.insert} copies it only when it
    makes a new subtable. *)

val revision : t -> int
val n_rules : t -> int
val n_subtables : t -> int
val rules : t -> Action.t Pi_classifier.Rule.t list
