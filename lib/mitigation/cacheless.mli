(** Flow-cache-less softswitch baseline (the paper cites dataplane
    specialisation, Molnár et al., SIGCOMM'16): every packet is
    classified directly against the compiled rule set, with no megaflow
    cache to poison.

    Its per-packet cost is a function of the {e rule set} — controlled
    by the installed policies, not by adversarial traffic — so policy
    injection cannot degrade it: the defining trade-off is a higher
    (but attack-independent) base cost, plus recompilation on policy
    change for the decision-tree engine. *)

type engine =
  | Tss_engine
      (** tuple-space search over the rule masks (no caching) *)
  | Dtree_engine of int
      (** a compiled decision tree ({!Pi_classifier.Dtree}) with the
          given leaf size — the "specialised" pipeline proper *)

type t

val create :
  ?engine:engine -> ?config:Pi_classifier.Tss.config ->
  ?cost:Pi_ovs.Cost_model.t -> unit -> t
(** [engine] defaults to {!Tss_engine}; [config] only affects the TSS
    engine. *)

val engine : t -> engine

val install_rules : t -> Pi_ovs.Action.t Pi_classifier.Rule.t list -> unit
(** The decision-tree engine recompiles — the specialisation cost the
    cache-less design pays at policy-change time instead of per packet. *)

val remove_rules : t -> (Pi_ovs.Action.t Pi_classifier.Rule.t -> bool) -> int

val process :
  t -> Pi_classifier.Flow.t -> pkt_len:int ->
  Pi_ovs.Action.t * Pi_ovs.Cost_model.outcome
(** The outcome reports the classifier work as [mf_probes] so the
    shared cost model prices it; there is no EMC and no upcall. *)

val cycles_used : t -> float
val n_processed : t -> int
val n_subtables : t -> int
(** TSS engine: subtables; decision-tree engine: tree nodes. *)

val reset_stats : t -> unit

val dataplane :
  ?engine:engine -> ?config:Pi_classifier.Tss.config ->
  ?cost:Pi_ovs.Cost_model.t -> unit -> Pi_ovs.Dataplane.backend
(** A conforming {!Pi_ovs.Dataplane} backend (name ["cacheless"]): one
    shard, [~now] ignored, [revalidate] and [service_upcalls] are no-ops
    and every cache statistic (masks, megaflows, EMC, upcall queue)
    reports 0 — there is nothing for policy injection to poison. A
    telemetry registry gets the [packets] counter a datapath reports,
    reading the backend's own packet count (so {!reset_stats} resets
    it too), and the per-shard views count the packets served. The PRNG
    handed to
    [create] is unused. *)
