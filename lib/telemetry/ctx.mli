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
  perf : Perf.t option;
}

val empty : t
(** No telemetry: every field [None]. Backends given [empty] must behave
    bit-for-bit as if telemetry had never been wired in. *)

val v : ?metrics:Metrics.t -> ?tracer:Tracer.t -> ?perf:Perf.t -> unit -> t
(** Bundle whatever instruments are given. [v ()] is {!empty}. *)

val full : unit -> t
(** A fresh registry, a fresh (default-capacity) tracer and a fresh
    per-stage profiler — the usual "turn everything on" context for CLI
    runs. *)

val metrics : t -> Metrics.t option
val tracer : t -> Tracer.t option

val perf : t -> Perf.t option
(** The per-stage cycle profiler, if attached. A multi-shard backend
    treats it as an enable flag and builds one private instance per
    shard, exactly as it does for [metrics] (see
    [Pi_ovs.Dataplane.S.shard_perf]); merge the shards with
    {!Perf.merge} for a whole-dataplane view. *)

val enabled : t -> bool
(** [true] iff at least one instrument is attached. *)

val with_metrics : t -> Metrics.t -> t
val with_perf : t -> Perf.t -> t
val without_tracer : t -> t
(** Drop the tracer (e.g. for parallel shards that must not share a
    ring buffer). *)
