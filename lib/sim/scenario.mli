(** The end-to-end attack scenario of the paper's Fig. 3: a server whose
    hypervisor switch carries a victim tenant's traffic, an attacker
    tenant that injects a malicious policy at [attack.start] and feeds
    it a low-bandwidth covert stream, and a per-tick measurement of the
    victim's achievable throughput and the megaflow-cache state.

    The scenario drives a {!Pi_ovs.Dataplane} — any conforming backend
    runs unchanged via {!params.backend}. The default is a {!Pi_ovs.Pmd}
    built from [n_shards]/[batch_size]/[batch_cycles]/[datapath_config]:
    PMD threads (one core each) with RSS steering and rx batching. With
    the default [n_shards = 1] the model is the single-datapath one,
    bit-for-bit.

    Simulation method (see EXPERIMENTS.md for the fidelity discussion):
    every covert packet of the first refresh round, and per-tick samples
    of both the covert stream and the victim workload, run through the
    {e real} datapath (EMC, TSS megaflow cache, slow path); per-packet
    CPU costs come from {!Pi_ovs.Cost_model} applied to the observed
    cache behaviour. The covert packets simulated exactly go through the
    dataplane in rx bursts of [batch_size], each packet's megaflow read
    from {!Pi_ovs.Batch.t.mf}; a burst is cut short near the flow limit
    so that results do not depend on the burst size. Victim goodput is
    then the offered load scaled by the CPU share left by the attacker —
    per shard when sharded, victim traffic weighted by its steering
    shares — passed through a Mathis-style TCP loss response. *)

type attack = {
  variant : Policy_injection.Variant.t;
  start : float;
  stop : float option;        (** [None] = runs to the end *)
  trusted_src : Pi_pkt.Ipv4_addr.t;  (** the whitelisted source *)
  allow_sport : int;  (** whitelisted L4 source port ([Src_sport_dport]) *)
  allow_dport : int;  (** whitelisted L4 destination port *)
  proto : Pi_cms.Acl.protocol;
      (** protocol the malicious whitelist pins ([Tcp] or [Udp]) *)
  covert_pkt_len : int;
  refresh_period : float;
  attacker_exact_per_tick : int;
      (** covert packets simulated exactly per tick; the rest of the
          round is extrapolated from their measured cost *)
}

val default_attack : attack
(** Calico variant, starts at t=60 s, 100-byte covert frames refreshed
    every 5 s (≈1.3 Mb/s, the paper's "1–2 Mbps"). *)

type sample = {
  time : float;
  victim_gbps : float;
  offered_gbps : float;
  n_masks : int;                (** total across shards *)
  n_megaflows : int;
  shard_masks : int array;      (** per-shard mask counts *)
  shard_gbps : float array;
      (** per-shard slice of [victim_gbps] (sums to it): the goodput of
          the victim traffic RSS steered that shard's way *)
  emc_hit_rate : float;
  victim_cycles_per_pkt : float;
  attacker_cycles_per_sec : float;
  loss : float;
}

type params = {
  seed : int64;
  duration : float;
  tick : float;
  victim_offered_gbps : float;
  victim_pkt_len : int;
  victim_flows : int;           (** concurrent client flows *)
  victim_churn : float;         (** fraction of flows replaced per second *)
  victim_samples_per_tick : int;
  victim_allowed_net : Pi_pkt.Ipv4_addr.Prefix.t;
      (** the victim's own whitelist (clients) *)
  background_services : int;
      (** other pods on the host with their own policies and a trickle
          of traffic — gives the cache its realistic pre-attack handful
          of megaflows (default 8) *)
  attack : attack option;
  n_shards : int;               (** PMD threads, one core each (default 1) *)
  batch_size : int;
      (** rx burst size (default 32); also the size of the scenario's
          covert bursts, whatever the backend. Results do not depend on
          it *)
  batch_cycles : float;
      (** fixed cycles charged once per rx burst (default 0) *)
  pipeline : bool;
      (** run the default {!Pi_ovs.Pmd} backend in run-to-completion
          pipeline mode (persistent per-shard worker domains behind
          SPSC rings, see {!Pi_ovs.Pmd.mode}) instead of the
          deterministic oracle. Default [false]; ignored when
          [backend] is given. Cycle-model results are unchanged —
          only wall-clock execution differs *)
  backend : Pi_ovs.Dataplane.backend option;
      (** the dataplane to drive. [None] (default): a {!Pi_ovs.Pmd}
          backend built from the four fields above — the historical
          scenario, bit for bit. [Some b]: run [b] instead; those fields
          are then ignored, though [datapath_config.cost.cpu_hz] still
          sets the per-core cycle budget and
          [datapath_config.megaflow.max_entries] still caps covert
          bursts near the flow limit, so keep the backend's cost model
          and flow limit consistent with them *)
  datapath_config : Pi_ovs.Datapath.config;
  tss_config : Pi_classifier.Tss.config option;
  revalidate_period : float;
  rtt : float;                  (** victim TCP round-trip time *)
  mss : int;
  metrics : Pi_telemetry.Metrics.t option;
      (** attach a telemetry registry to the datapath; enables the
          per-tick gauge scrape reported in {!report.scrape}. The
          datapath names its counts in it, so a fresh registry per run *)
  provenance : bool;
      (** bind every installed policy to its tenant (pod port ids: victim
          2, attacker 3, services 4+i) in a {!Pi_ovs.Provenance.registry}
          and attach per-shard stores, so masks carry origins and the
          report carries {!report.attribution}. Default [false];
          disabled runs are bit-for-bit the historical scenario *)
  sample_log : Pi_telemetry.Sample_log.t option;
      (** bounded JSONL event ring: when given (and a scrape is active),
          every per-tick scrape also appends one
          [{"samples":{...},"t":...}] line to it — the artifact
          [ovsdos run --sample-log] / [bench fig3] write out *)
  on_sample : (Pi_ovs.Dataplane.t -> sample -> unit) option;
      (** called once per tick, after upcall servicing / revalidation /
          scraping, with the live dataplane and the tick's sample — the
          [ovsdos monitor] live-view hook. The dataplane must only be
          {e inspected} (quiescent at this point) *)
}

val default_params : params
(** 150 s, 1 s ticks, 1 Gb/s offered victim load (Fig. 3's scale),
    default attack, one shard. *)

type report = {
  samples : sample list;
  pre_attack_mean_gbps : float;
      (** mean victim throughput before the attack (or over the whole
          run when there is none) *)
  post_attack_mean_gbps : float;
      (** mean from 10 s after the attack starts (ramp excluded) to its
          end; [nan] without an attack *)
  peak_masks : int;
  peak_shard_masks : int array;
  throughput_series : Pi_telemetry.Timeseries.t;
      (** victim Gb/s over time *)
  masks_series : Pi_telemetry.Timeseries.t;
      (** megaflow mask count over time *)
  shard_masks_series : Pi_telemetry.Timeseries.t array;
      (** one mask-count series per shard ([shard<i>-masks]) *)
  scrape : Pi_telemetry.Scrape.t option;
      (** per-tick [n_masks]/[n_megaflows]/[emc_occupancy] (plus
          [shard<i>/n_masks] when sharded); [Some] exactly when
          {!params.metrics} or {!params.sample_log} was given *)
  perf : Pi_telemetry.Perf.t option;
      (** the per-stage cycle profile merged across shards
          ({!Pi_ovs.Dataplane.shard_perf}), a view over the run's
          dataplane; [None] on a backend that does not profile (the
          cache-less one) *)
  final_stats : Pi_ovs.Dataplane.stats;
      (** the dataplane's cumulative counters at the end of the run —
          includes [upcall_drops] under a bounded upcall queue *)
  attribution : Pi_ovs.Provenance.summary option;
      (** ranked per-tenant/per-port attribution at the end of the run;
          [Some] exactly when {!params.provenance} — under the Fig. 3
          attack its top row names the attacker tenant, ingress ports
          and offending ACL rules *)
}

val run : params -> report

val pp_sample_header : Format.formatter -> unit -> unit
val pp_sample : Format.formatter -> sample -> unit
