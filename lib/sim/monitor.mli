(** Live monitor state for [ovsdos monitor]: sliding-window statistics
    over a running scenario plus two renderers — a top-like text frame
    and a byte-stable JSON snapshot.

    Wire it through {!Scenario.params.on_sample}: call {!observe} once
    per tick, then render with {!frame} (terminal) or {!json}
    (scripting). Windowed readings (p50/p99 cycles per packet, upcall
    rate, per-stage cycle shares) describe exactly the interval between
    the last two ticks, so the attack's onset is visible the tick it
    lands instead of being averaged into the whole run. *)

type t

val create : Pi_ovs.Dataplane.t -> t
(** Build the monitor for a dataplane: one
    {!Pi_telemetry.Window.t} per shard over its [cycles_per_packet]
    histogram (when the shard has a metrics registry), an upcall-rate
    EWMA, and per-stage cycle windows (when the dataplane reports
    {!Pi_ovs.Dataplane.shard_perf} profiles). Works degraded with any
    instruments missing — the corresponding lines/fields are omitted or
    [null]. *)

val observe : t -> Pi_ovs.Dataplane.t -> Scenario.sample -> unit
(** Close the tick's windows. Call once per scenario tick (from
    [on_sample]), before rendering. *)

val ticks : t -> int

val win_percentile : t -> float -> float
(** Merged-across-shards windowed percentile of per-packet cycles
    (bucket resolution); [nan] without metrics or on an empty window.
    Raises [Invalid_argument] on [p] outside [\[0, 100\]] or NaN. *)

val frame : t -> Pi_ovs.Dataplane.t -> Scenario.sample -> string
(** The text frame: victim throughput vs offered, loss, cache sizes,
    EMC hit rate, upcall queue depth/drops/rate, windowed cycle
    percentiles, per-stage cycle shares, a per-shard masks/Gbps table,
    and the top suspect tenant when provenance is on. Plain text (no
    escape codes) — the CLI adds cursor control. *)

val pp_frame :
  Format.formatter -> t * Pi_ovs.Dataplane.t * Scenario.sample -> unit

val json : t -> Pi_ovs.Dataplane.t -> Scenario.sample -> string
(** One newline-terminated JSON object per call, byte-stable (sorted
    keys, [%.9g] floats, non-finite floats and absent instruments
    rendered as [null]) — suitable for goldens and line-oriented
    consumers. *)
