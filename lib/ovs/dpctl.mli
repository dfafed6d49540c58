(** [ovs-appctl]-style introspection over any live {!Dataplane.t}.

    The renderers mirror the tools a provider would point at a real OVS
    under the paper's attack: [dpctl/dump-flows], a per-mask dump with
    hit counts and provenance, per-port statistics and
    [dpif-netdev/pmd-perf-show]. All of them work on every backend —
    unsharded output simply has no per-thread headers, and the
    cache-less baseline renders empty flow/mask sections. *)

val dump_flows : ?max:int -> now:float -> Format.formatter -> Dataplane.t -> unit
(** Every shard's megaflow entries in scan order ({!Megaflow.pp_entry},
    with [origin(...)] when provenance stamped them), capped at [max]
    per shard, followed by a [flows:/masks:] summary line. *)

val dump_masks : Format.formatter -> Dataplane.t -> unit
(** One line per subtable: mask, live entry count, hit count, and the
    mask's first minter ([origin(...)]) when provenance is on. *)

val port_stats : Format.formatter -> Dataplane.t -> unit
(** Per-ingress-port accounting (packets, cache hits, probes, upcalls,
    cycles, masks induced) merged across shards. Prints a hint when the
    dataplane carries no provenance store. *)

val pmd_perf : Format.formatter -> Dataplane.t -> unit
(** [pmd-perf-show]: per-shard masks/cycles, hit-rate breakdowns when
    the shard has a metrics registry, a per-stage cycle breakdown
    (steering / emc / megaflow / upcall / revalidation / batch, each
    with its share of the charged cycles) when it reports a
    {!Pi_telemetry.Perf.t} profile, and a cross-shard total. *)

val attribution : Format.formatter -> Dataplane.t -> unit
(** The ranked tenant attribution report ({!Provenance.pp_summary}).
    Prints a hint when the dataplane carries no provenance store. *)
