(** Telemetry context: the one value a dataplane backend is handed at
    creation time.

    A backend constructor receives telemetry exactly once, as a [Ctx.t].
    The stages it builds (EMC, megaflow cache, slow path) take no
    telemetry at all: they keep their counts in their own fields, and
    the constructor names those fields in [metrics] in one place
    ([Pi_ovs.Datapath.create]). The registry owns only the histograms
    the constructor asks it for. *)

type t = {
  metrics : Metrics.t option;
  tracer : Tracer.t option;
}

val empty : t
(** No telemetry: every field [None]. Backends given [empty] must behave
    bit-for-bit as if telemetry had never been wired in. *)

val v : ?metrics:Metrics.t -> ?tracer:Tracer.t -> unit -> t
(** Bundle whatever instruments are given. [v ()] is {!empty}. *)

val full : unit -> t
(** A fresh registry and a fresh (default-capacity) tracer — the usual
    "turn everything on" context for CLI runs. The per-stage cycle
    profile needs no instrument: every PMD shard reports one (see
    [Pi_ovs.Dataplane.S.shard_perf]). *)

val metrics : t -> Metrics.t option
val tracer : t -> Tracer.t option

val enabled : t -> bool
(** [true] iff at least one instrument is attached. *)

val with_metrics : t -> Metrics.t -> t
val without_tracer : t -> t
(** Drop the tracer (e.g. for parallel shards that must not share a
    ring buffer). *)
