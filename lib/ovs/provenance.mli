(** Mask provenance and attack attribution.

    The paper's mitigation story needs the provider-side question
    answered: {e which tenant, entering on which port, under which ACL
    rule, caused this mask?} This module supplies the plumbing:

    - a {!registry} binds slow-path rule sequence numbers
      ({!Pi_classifier.Rule.t}[.seq]) to the tenant whose policy
      compiled them (and the ACL rule index inside that policy);
    - a per-shard {!store} accumulates per-port fast-path accounting
      and per-tenant mask/upcall attribution as the datapath runs;
    - {!report} merges any number of shard stores into a ranked
      {!summary} — tenants ordered by induced masks, then consumed
      upcall cycles — whose top row is the {!top_suspect} handed to
      {!Pi_mitigation.Detector}.

    Attribution is {e attached at upcall time}: when the slow path
    mints a megaflow, the matched rule identifies the tenant (covert
    packets arrive on the uplink, so the ingress port alone cannot),
    and the minted mask is stamped with that {!origin}.

    Off by default. A datapath without a store attached behaves
    bit-for-bit as before — same PRNG stream, same cycle accounting,
    same allocation profile (the discipline of the telemetry layer). *)

type origin = {
  o_port : int;      (** ingress port of the packet whose upcall minted it *)
  o_tenant : int;    (** {!no_tenant} when the rule is unbound *)
  o_rule : int;      (** matched rule's sequence number; {!no_rule} on a
                         table miss *)
  o_acl_rule : int;  (** ACL rule index inside the tenant's policy;
                         {!no_rule} when unknown *)
}

val no_tenant : int
val no_rule : int
(** Both [-1]: rendered as [?]. *)

val pp_origin : Format.formatter -> origin -> unit

(** {1 Rule registry (shared, control-plane-written)} *)

type registry

val registry : unit -> registry

val bind :
  registry -> tenant:int -> ?acl_rule:(Action.t Pi_classifier.Rule.t -> int) ->
  Action.t Pi_classifier.Rule.t list -> unit
(** Bind compiled rules to [tenant]. [acl_rule] recovers the ACL rule
    index from a rule (e.g. {!Pi_cms.Compile.acl_rule_index}, which
    decodes it from the priority); defaults to {!no_rule}. Rebinding a
    rule replaces its binding. Must not race processing: call between
    bursts, as with rule installs. *)

(** {1 Per-shard store} *)

type store

val store : ?metrics:Pi_telemetry.Metrics.t -> registry -> store
(** When [metrics] is given, each port the store first accounts is named
    in the registry: [port<i>/packets], [port<i>/emc_hit],
    [port<i>/mf_hit], [port<i>/mf_probes] and [port<i>/upcall] counters
    that read the port's own counts (the [p_*] fields of its
    {!port_row}), and a [port<i>/cycles] histogram, beside the plain
    datapath-wide names. Use the owning shard's registry, never a shared
    one. *)

val account :
  store -> port:int -> outcome:Cost_model.outcome -> cycles:float -> unit
(** Charge one fast-path packet to the port that paid for it. *)

val account_handler :
  store -> port:int -> slow_probes:int -> cycles:float -> unit
(** Charge one deferred upcall (handler thread) to its ingress port. *)

val reset_ports : store -> unit
(** Zero every port's packet, hit, probe, upcall and cycle counts: the
    measurement-window reset ({!Datapath.reset_stats} calls it). The
    tenant and mask attribution, and each port's induced-mask count,
    stay. *)

val origin_for : store -> port:int -> rule_seq:int -> origin
(** Resolve an upcall's origin through the registry ([rule_seq] may be
    {!no_rule} for a table miss). *)

val note_install :
  store -> origin -> mask:Pi_classifier.Mask.t -> new_mask:bool ->
  upcall_cycles:float -> unit
(** Attribute one megaflow install (and, when [new_mask], the mask it
    minted) to [origin]'s tenant. *)

val mask_origin : store -> Pi_classifier.Mask.t -> origin option
(** First minter of a mask, as recorded by {!note_install}. *)

(** {1 Reports} *)

type rule_share = {
  r_rule : int;
  r_acl_rule : int;
  r_masks : int;     (** masks this rule's upcalls minted *)
  r_upcalls : int;
}

type row = {
  t_tenant : int;
  t_masks : int;             (** masks induced (cumulative mints) *)
  t_megaflows : int;         (** megaflow installs *)
  t_upcalls : int;
  t_upcall_cycles : float;
  t_ports : int list;        (** ingress ports seen, most upcalls first *)
  t_rules : rule_share list; (** offending rules, most masks first *)
}

type port_row = {
  p_port : int;
  p_packets : int;
  p_emc_hits : int;
  p_mf_hits : int;
  p_mf_probes : int;
  p_upcalls : int;
  p_slow_probes : int;
  p_masks_induced : int;     (** masks minted by upcalls entering here *)
  p_cycles : float;
  p_handler_cycles : float;
}

type summary = { rows : row list; ports : port_row list }

val report : store list -> summary
(** Merge shard stores. [rows] are ranked by induced masks, ties broken
    by upcall cycles then tenant id; [ports] are sorted by port. The
    empty list yields an empty summary. *)

val top_suspect : summary -> row option
(** The #1-ranked tenant, provided it induced at least one mask. *)

val pp_row : Format.formatter -> row -> unit
val pp_summary : Format.formatter -> summary -> unit
val pp_port_row : Format.formatter -> port_row -> unit
val pp_ports : Format.formatter -> summary -> unit

val summary_json : summary -> string
(** Byte-stable JSON object ([{"tenants":[...],"ports":[...]}], ranked
    order, [%.9g] floats) for embedding in the telemetry snapshot. *)
