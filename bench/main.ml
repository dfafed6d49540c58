(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md §6.

     fig2         Fig. 2a/2b — the ACL and its megaflow expansion
     masks        in-text mask counts: 8 / 32 / 512 / 8192, predicted vs measured
     throughput   in-text "10% of peak performance" — capacity vs mask count
     fig3         Fig. 3 — victim throughput + megaflow count over 150 s
     shards       the attack vs a multi-PMD datapath (per-shard mask sets)
     mitigations  ablation: mask cap / coarse un-wildcarding / cache-less
     ranking      ablation: OVS cache flavours (EMC, pvector ranking,
                  kernel mask cache) under the full attack
     sweep        sensitivity to the refresh period and the EMC size
     hotpath      measured ns and minor words per op of the real structures
                  (the measured per-probe cost beside the cost model's),
                  with the zero-alloc and batch gates
     wallclock    measured pkts/s of the PMD execution engines

   Run everything:      dune exec bench/main.exe
   Run a subset:        dune exec bench/main.exe -- fig3 hotpath
   The program exits 1 if a hotpath gate failed. *)

open Policy_injection

let ip = Pi_pkt.Ipv4_addr.of_string

let section name =
  Printf.printf "\n================================================================\n";
  Printf.printf "  %s\n" name;
  Printf.printf "================================================================\n\n"

(* BENCH_*.json: [leaves] pairs a key path with its value's writer; the
   object nests them by path, keys in sorted order, so the bytes are
   stable across runs. Keys and numbers go through [Pi_telemetry.Json]
   (a non-finite number is written as null). *)
let write_json_tree path leaves =
  let rec add b leaves =
    match leaves with
    | [ ([], add_v) ] -> add_v b
    | _ ->
      let head = function
        | k :: _, _ -> k
        | [], _ -> invalid_arg "write_json_tree: a path is a prefix of another"
      in
      let keys = List.sort_uniq String.compare (List.map head leaves) in
      Buffer.add_char b '{';
      List.iteri
        (fun i k ->
          if i > 0 then Buffer.add_char b ',';
          Pi_telemetry.Json.add_string b k;
          Buffer.add_char b ':';
          add b
            (List.filter_map
               (function k' :: rest, v when k' = k -> Some (rest, v) | _ -> None)
               leaves))
        keys;
      Buffer.add_char b '}'
  in
  let b = Buffer.create 4096 in
  add b leaves;
  Out_channel.with_open_text path (fun oc ->
      Buffer.output_buffer oc b;
      output_char oc '\n')

let json_num v b = Pi_telemetry.Json.add_float b v

(* ------------------------------------------------------------------ *)
(* fig2: the ACL of Fig. 2a and the megaflow table of Fig. 2b          *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "fig2 — ACL and resultant non-overlapping megaflow entries (Fig. 2a/2b)";
  let bits x =
    String.init 8 (fun i -> if (x lsr (7 - i)) land 1 = 1 then '1' else '0')
  in
  Printf.printf "(a) Binary ACL representation of the single-field policy:\n\n";
  Printf.printf "      ip_src    action\n";
  Printf.printf "      00001010  allow\n";
  Printf.printf "      ********  deny\n\n";
  let trie = Pi_classifier.Trie.create ~width:8 in
  Pi_classifier.Trie.insert trie ~value:0b00001010 ~len:8;
  let rows = Pi_classifier.Trie.complement trie in
  Printf.printf "(b) Resultant non-overlapping megaflow entries:\n\n";
  Printf.printf "      %-10s %-10s %s\n" "Key" "Mask" "Action";
  Printf.printf "      %-10s %-10s %s\n" "00001010" "11111111" "allow";
  List.iter
    (fun (v, len) ->
      let mask =
        if len = 0 then 0 else ((-1) lsl (8 - len)) land 0xFF
      in
      Printf.printf "      %-10s %-10s %s\n" (bits v) (bits mask) "deny")
    rows;
  Printf.printf
    "\n  paper: 8 deny masks => 8 TSS iterations; measured: %d deny masks\n"
    (List.length rows)

(* ------------------------------------------------------------------ *)
(* masks: predicted vs measured megaflow mask counts                   *)
(* ------------------------------------------------------------------ *)

let measured_masks ?tss_config variant =
  let spec = Policy_gen.default_spec ~variant ~allow_src:(ip "10.0.0.10") () in
  let dp = Pi_ovs.Datapath.create ?tss_config (Pi_pkt.Prng.create 1L) () in
  Pi_ovs.Datapath.install_rules dp
    (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) (Policy_gen.acl spec));
  let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
  List.iter
    (fun f -> ignore (Pi_ovs.Datapath.process dp ~now:0. f ~pkt_len:100))
    (Packet_gen.flows gen);
  Pi_ovs.Datapath.n_masks dp

let run_masks () =
  section "masks — megaflow masks injectable per ACL variant (paper §2)";
  Printf.printf "  %-18s %-32s %10s %10s\n" "variant" "CMS support" "predicted" "measured";
  List.iter
    (fun v ->
      let cms =
        String.concat "," (List.map (function
            | Pi_cms.Cloud.Kubernetes -> "k8s"
            | Pi_cms.Cloud.Openstack -> "openstack"
            | Pi_cms.Cloud.Kubernetes_calico -> "calico")
            (Variant.required_cms v))
      in
      Printf.printf "  %-18s %-32s %10d %10d\n" (Variant.name v) cms
        (Predict.variant_masks v) (measured_masks v))
    Variant.all;
  Printf.printf "  %-18s %-32s %10d %10d\n" "fig2-toy (8-bit)" "-" 8 8;
  let cfg = Pi_classifier.Tss.ovs_default_config in
  Printf.printf "\n  ablation (stock-OVS tries: ip only, short-circuit):\n";
  Printf.printf "  %-18s %-32s %10d %10d\n" "src-dport" "stock OVS config"
    (Predict.variant_masks ~config:cfg Variant.Src_dport)
    (measured_masks ~tss_config:cfg Variant.Src_dport);
  (* Generalisation: richer whitelists, same machinery. One packet per
     complement prefix materialises exactly the predicted masks. *)
  Printf.printf "\n  generalised whitelists (src prefixes only):\n";
  Printf.printf "  %-42s %10s %10s\n" "whitelist" "predicted" "measured";
  let whitelist_row name prefixes =
    let acl =
      Pi_cms.Acl.whitelist
        (List.map
           (fun (p : Pi_pkt.Ipv4_addr.Prefix.t) -> Pi_cms.Acl.entry ~src:p ())
           prefixes)
    in
    let dp =
      Pi_ovs.Datapath.create
        ~config:{ Pi_ovs.Datapath.default_config with Pi_ovs.Datapath.emc_enabled = false }
        (Pi_pkt.Prng.create 5L) ()
    in
    Pi_ovs.Datapath.install_rules dp
      (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 1) acl);
    let as_int (p : Pi_pkt.Ipv4_addr.Prefix.t) =
      (Int32.to_int p.Pi_pkt.Ipv4_addr.Prefix.base land 0xFFFFFFFF,
       p.Pi_pkt.Ipv4_addr.Prefix.len)
    in
    let trie = Pi_classifier.Trie.create ~width:32 in
    List.iter
      (fun p ->
        let v, len = as_int p in
        if not (Pi_classifier.Trie.mem trie ~value:v ~len) then
          Pi_classifier.Trie.insert trie ~value:v ~len)
      prefixes;
    List.iter
      (fun (v, _) ->
        ignore
          (Pi_ovs.Datapath.process dp ~now:0.
             (Pi_classifier.Flow.make ~ip_src:(Int32.of_int v) ())
             ~pkt_len:64))
      (Pi_classifier.Trie.complement trie);
    Printf.printf "  %-42s %10d %10d\n" name
      (Predict.whitelist_masks
         [ (Pi_classifier.Field.Ip_src, List.map as_int prefixes) ])
      (Pi_ovs.Datapath.n_masks dp)
  in
  let pfx = Pi_pkt.Ipv4_addr.Prefix.of_string in
  whitelist_row "allow 10.0.0.0/8" [ pfx "10.0.0.0/8" ];
  whitelist_row "allow 10/8 + 192.168/16" [ pfx "10.0.0.0/8"; pfx "192.168.0.0/16" ];
  whitelist_row "allow 3 corp CIDRs"
    [ pfx "10.0.0.0/8"; pfx "172.16.0.0/12"; pfx "192.168.0.0/16" ];
  whitelist_row "allow 4 hosts (/32s)"
    [ pfx "10.0.0.10"; pfx "10.0.0.20"; pfx "10.77.1.2"; pfx "192.168.3.4" ];
  Printf.printf
    "\n  paper: \"one can inject 512 MF masks/entries\" (src+dport) and\n\
    \  \"enough masks (8192) to a full-blown DoS attack\" (+sport, Calico).\n"

(* ------------------------------------------------------------------ *)
(* throughput: forwarding capacity vs injected mask count              *)
(* ------------------------------------------------------------------ *)

let capacity_scenario ?(attack = None) () =
  let open Pi_sim in
  Scenario.run
    { Scenario.default_params with
      Scenario.duration = 45.;
      victim_flows = 4000;
      victim_samples_per_tick = 400;
      attack }

let mean_over samples f lo hi =
  let vs =
    List.filter_map
      (fun s ->
        if s.Pi_sim.Scenario.time >= lo && s.Pi_sim.Scenario.time < hi then
          Some (f s)
        else None)
      samples
  in
  List.fold_left ( +. ) 0. vs /. float_of_int (max 1 (List.length vs))

let run_throughput () =
  section
    "throughput — victim-workload forwarding capacity vs injected masks\n\
    \  (paper: 512 masks slow OVS \"down to 10% of the peak performance\")";
  let cost = Pi_ovs.Cost_model.default in
  Printf.printf "  %-18s %8s %14s %14s %10s\n" "variant" "masks" "cycles/pkt"
    "capacity[Gbps]" "relative";
  let base_cpp = ref nan in
  let row name attack =
    let r = capacity_scenario ~attack () in
    let cpp =
      mean_over r.Pi_sim.Scenario.samples
        (fun s -> s.Pi_sim.Scenario.victim_cycles_per_pkt)
        (match attack with None -> 5. | Some _ -> 25.)
        45.
    in
    if Float.is_nan !base_cpp then base_cpp := cpp;
    let pps = Pi_ovs.Cost_model.pps_capacity cost ~avg_cycles:cpp in
    let gbps = Pi_ovs.Cost_model.gbps ~pps ~pkt_len:1500 in
    Printf.printf "  %-18s %8d %14.0f %14.2f %9.1f%%\n" name
      r.Pi_sim.Scenario.peak_masks cpp gbps
      (100. *. !base_cpp /. cpp)
  in
  row "no attack" None;
  List.iter
    (fun v ->
      let a =
        { Pi_sim.Scenario.default_attack with
          Pi_sim.Scenario.variant = v;
          start = 10.;
          attacker_exact_per_tick = 48 }
      in
      row (Variant.name v) (Some a))
    Variant.all;
  Printf.printf
    "\n  shape check: capacity falls by >80%% at 512 masks and collapses at\n\
    \  8192 (paper: -80..90%% and full DoS). Absolute Gbps depend on the\n\
    \  calibrated cost model; see EXPERIMENTS.md.\n"

(* ------------------------------------------------------------------ *)
(* fig3: the end-to-end DoS time series                                *)
(* ------------------------------------------------------------------ *)

let run_fig3 () =
  section
    "fig3 — OVS degradation in Kubernetes: attacker feeds her ACL with\n\
    \  low-bandwidth packets at the 60th second (150 s run)";
  let attack = Pi_sim.Scenario.default_attack in
  Printf.printf "  covert stream: %d flows, %.2f Mb/s, refresh %.0f s\n\n"
    (Predict.covert_packets attack.Pi_sim.Scenario.variant)
    (Predict.covert_bandwidth_bps
       ~pkt_len:attack.Pi_sim.Scenario.covert_pkt_len
       ~refresh_period:attack.Pi_sim.Scenario.refresh_period
       attack.Pi_sim.Scenario.variant
     /. 1e6)
    attack.Pi_sim.Scenario.refresh_period;
  let metrics = Pi_telemetry.Metrics.create () in
  let r =
    Pi_sim.Scenario.run
      { Pi_sim.Scenario.default_params with
        Pi_sim.Scenario.metrics = Some metrics }
  in
  Format.printf "  %a@." Pi_sim.Scenario.pp_sample_header ();
  List.iter
    (fun s ->
      if int_of_float s.Pi_sim.Scenario.time mod 5 = 0 then
        Format.printf "  %a@." Pi_sim.Scenario.pp_sample s)
    r.Pi_sim.Scenario.samples;
  Printf.printf "\n  victim mean: %.3f Gbps pre-attack, %.3f Gbps post-attack\n"
    r.Pi_sim.Scenario.pre_attack_mean_gbps r.Pi_sim.Scenario.post_attack_mean_gbps;
  Printf.printf "  peak megaflows: %d (paper Fig. 3: ~8192 and throughput -> ~0)\n"
    r.Pi_sim.Scenario.peak_masks;
  (* Machine-readable perf trajectory for future PRs: per-stage counters,
     the cycles-per-packet histogram and the per-tick mask-count series. *)
  (match Pi_telemetry.Metrics.find_histogram metrics "cycles_per_packet" with
   | Some h ->
     let s = Pi_telemetry.Histogram.summary h in
     Printf.printf
       "  cycles/packet: mean %.0f, p50 %.0f, p99 %.0f over %d packets\n"
       s.Pi_telemetry.Histogram.s_mean s.Pi_telemetry.Histogram.s_p50
       s.Pi_telemetry.Histogram.s_p99 s.Pi_telemetry.Histogram.s_count
   | None -> ());
  let timeseries = Pi_sim.Scenario.timeseries r in
  let path = "BENCH_fig3.json" in
  Pi_telemetry.Export.write_json_file ~timeseries ~path metrics;
  Printf.printf "  telemetry snapshot written to %s\n" path;
  let jsonl = "BENCH_fig3_samples.jsonl" in
  Out_channel.with_open_text jsonl (fun oc ->
      output_string oc (Pi_telemetry.Export.timeseries_jsonl timeseries));
  Printf.printf "  per-tick sample log written to %s (%d lines)\n" jsonl
    (List.length r.Pi_sim.Scenario.samples)

(* ------------------------------------------------------------------ *)
(* shards: the attack against a multi-PMD (multi-core) datapath        *)
(* ------------------------------------------------------------------ *)

let run_shards () =
  section
    "shards — full attack vs a PMD-sharded datapath (RSS steering,\n\
    \  one core per shard; the TSE follow-up's per-core measurements)";
  let open Pi_sim in
  let attack =
    { Scenario.default_attack with Scenario.start = 10.; attacker_exact_per_tick = 48 }
  in
  Printf.printf "  %-8s %14s %14s %24s\n" "shards" "pre[Gbps]" "post[Gbps]"
    "per-shard peak masks";
  List.iter
    (fun n_shards ->
      let p =
        { Scenario.default_params with
          Scenario.duration = 40.;
          victim_flows = 4000;
          victim_samples_per_tick = 400;
          attack = Some attack;
          n_shards }
      in
      let r = Scenario.run p in
      Printf.printf "  %-8d %14.3f %14.3f %24s\n" n_shards
        r.Scenario.pre_attack_mean_gbps r.Scenario.post_attack_mean_gbps
        (String.concat " "
           (Array.to_list
              (Array.map string_of_int r.Scenario.peak_shard_masks))))
    [ 1; 2; 4 ];
  Printf.printf
    "\n  reading: RSS spreads the covert flows over every shard, so each\n\
    \  PMD grows its own mask set.  Extra cores buy headroom (at this\n\
    \  covert rate 4 PMDs absorb the scan), but every core serving the\n\
    \  victim still pays the inflated per-packet cost, and the covert\n\
    \  stream is cheap enough to scale per shard — sharding dilutes the\n\
    \  attack, it does not remove it.\n"

(* ------------------------------------------------------------------ *)
(* mitigations: the trade-offs the poster discusses                    *)
(* ------------------------------------------------------------------ *)

let run_mitigations () =
  section "mitigations — same full attack vs hardened datapaths (ablation)";
  let open Pi_sim in
  let attack =
    { Scenario.default_attack with Scenario.start = 10.; attacker_exact_per_tick = 48 }
  in
  let run_with name dc =
    let p =
      { Scenario.default_params with
        Scenario.duration = 40.;
        victim_flows = 4000;
        victim_samples_per_tick = 400;
        attack = Some attack;
        datapath_config = dc }
    in
    let r = Scenario.run p in
    Printf.printf "  %-28s %8d %14.3f %14.3f\n" name r.Scenario.peak_masks
      r.Scenario.pre_attack_mean_gbps r.Scenario.post_attack_mean_gbps
  in
  Printf.printf "  %-28s %8s %14s %14s\n" "datapath" "masks" "pre[Gbps]" "post[Gbps]";
  let base = Scenario.default_params.Scenario.datapath_config in
  run_with "vanilla (OVS-style)" base;
  run_with "mask cap (64)" { base with Pi_ovs.Datapath.mask_limit = Some 64 };
  run_with "coarse un-wildcarding (8b)"
    { base with
      Pi_ovs.Datapath.megaflow_transform =
        Some (Pi_mitigation.Heuristics.round_up_prefix ~granularity:8) };
  (* Cache-less baselines: classification cost is a function of the
     rule set only, so the covert stream is priced like any other
     traffic. Two engines: TSS over the rule masks, and a compiled
     decision tree (dataplane specialisation proper). *)
  let spec =
    Policy_gen.default_spec ~variant:attack.Scenario.variant
      ~allow_src:attack.Scenario.trusted_src ()
  in
  let cacheless_cpp engine =
    let c = Pi_mitigation.Cacheless.create ~engine () in
    Pi_mitigation.Cacheless.install_rules c
      (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) (Policy_gen.acl spec));
    let gen = Packet_gen.make ~spec ~dst:(ip "10.1.0.3") () in
    List.iter
      (fun f -> ignore (Pi_mitigation.Cacheless.process c f ~pkt_len:100))
      (Packet_gen.flows gen);
    Pi_mitigation.Cacheless.reset_stats c;
    let rng = Pi_pkt.Prng.create 4L in
    let n_sample = 2000 in
    for _ = 1 to n_sample do
      let f =
        Pi_classifier.Flow.make ~ip_src:(Pi_pkt.Prng.int32 rng) ~ip_proto:17
          ~tp_src:(Pi_pkt.Prng.int rng 65536) ~tp_dst:(Pi_pkt.Prng.int rng 65536) ()
      in
      ignore (Pi_mitigation.Cacheless.process c f ~pkt_len:1500)
    done;
    Pi_mitigation.Cacheless.cycles_used c /. float_of_int n_sample
  in
  let row name engine =
    let cpp = cacheless_cpp engine in
    let pps = Pi_ovs.Cost_model.pps_capacity Pi_ovs.Cost_model.default ~avg_cycles:cpp in
    let gbps = min 1.0 (Pi_ovs.Cost_model.gbps ~pps ~pkt_len:1500) in
    Printf.printf "  %-28s %8s %14.3f %14.3f\n" name "n/a" gbps gbps;
    cpp
  in
  let cpp_tss = row "cache-less (TSS on rules)" Pi_mitigation.Cacheless.Tss_engine in
  let cpp_dt = row "cache-less (decision tree)" (Pi_mitigation.Cacheless.Dtree_engine 4) in
  Printf.printf
    "\n  trade-offs: cap/coarsening bound lookup cost at the price of less\n\
    \  aggregation; the cache-less designs are attack-immune but pay their\n\
    \  classifier on every packet (TSS %.0f, decision tree %.0f cycles/pkt)\n\
    \  and the tree recompiles on policy change.\n" cpp_tss cpp_dt

(* ------------------------------------------------------------------ *)
(* ranking: do OVS's own cache flavours survive the attack?            *)
(* ------------------------------------------------------------------ *)

let run_ranking () =
  section
    "ranking — OVS cache-flavour ablation under the full attack";
  let open Pi_sim in
  let attack =
    { Scenario.default_attack with Scenario.start = 10.; attacker_exact_per_tick = 48 }
  in
  let run_with name dc =
    let p =
      { Scenario.default_params with
        Scenario.duration = 40.;
        victim_flows = 4000;
        victim_samples_per_tick = 400;
        attack = Some attack;
        datapath_config = dc }
    in
    let r = Scenario.run p in
    let cpp =
      mean_over r.Scenario.samples
        (fun s -> s.Scenario.victim_cycles_per_pkt) 25. 40.
    in
    Printf.printf "  %-34s %8d %14.0f %14.3f\n" name r.Scenario.peak_masks cpp
      r.Scenario.post_attack_mean_gbps
  in
  Printf.printf "  %-34s %8s %14s %14s\n" "cache flavour" "masks"
    "victim cyc/pkt" "post[Gbps]";
  let base = Scenario.default_params.Scenario.datapath_config in
  run_with "userspace: EMC (8192)" base;
  run_with "userspace: EMC + pvector ranking"
    { base with Pi_ovs.Datapath.rank_subtables = true };
  run_with "kernel: mask cache (256)"
    { base with
      Pi_ovs.Datapath.emc_enabled = false;
      mask_cache_capacity = Some 256 };
  run_with "kernel: mask cache (64k, hypoth.)"
    { base with
      Pi_ovs.Datapath.emc_enabled = false;
      mask_cache_capacity = Some 65536 };
  Printf.printf
    "\n  pvector ranking rescues THIS victim because its traffic aggregates\n\
    \  under one hot mask that ranking promotes to the front; the kernel\n\
    \  datapath the paper attacked has no ranking, and its 256-entry mask\n\
    \  cache is thrashed by the attacker's 8192 live covert flows (even a\n\
    \  64k cache leaves churn-induced misses scanning every mask). The\n\
    \  CoNEXT'19 follow-up shows ranked classifiers fall to miss-targeting\n\
    \  variants of the same attack.\n"

(* ------------------------------------------------------------------ *)
(* sweep: sensitivity to the attacker's refresh period and the EMC size *)
(* ------------------------------------------------------------------ *)

let run_sweep () =
  section
    "sweep — attack-parameter sensitivity (refresh vs the 10 s idle\n\
    \  timeout; EMC sizing)";
  let open Pi_sim in
  (* Part A: sustained masks vs refresh period (src+dport variant). The
     idle timeout is 10 s: refreshing slower than that lets megaflows
     expire between rounds. *)
  Printf.printf "  A. refresh period vs sustained masks (idle timeout 10 s):\n\n";
  Printf.printf "     %-12s %14s %16s\n" "refresh[s]" "covert[Mb/s]" "masks (t=25..30)";
  List.iter
    (fun refresh ->
      let attack =
        { Scenario.default_attack with
          Scenario.variant = Variant.Src_dport;
          start = 5.;
          refresh_period = refresh;
          attacker_exact_per_tick = 48 }
      in
      let p =
        { Scenario.default_params with
          Scenario.duration = 30.;
          victim_flows = 2000;
          victim_samples_per_tick = 200;
          attack = Some attack }
      in
      let r = Scenario.run p in
      let sustained =
        mean_over r.Scenario.samples
          (fun s -> float_of_int s.Scenario.n_masks) 25. 30.
      in
      Printf.printf "     %-12.0f %14.3f %16.0f\n" refresh
        (Predict.covert_bandwidth_bps ~pkt_len:100 ~refresh_period:refresh
           Variant.Src_dport
         /. 1e6)
        sustained)
    [ 2.; 5.; 9.; 15. ];
  (* Part B: EMC capacity under the full attack. *)
  Printf.printf
    "\n  B. EMC capacity vs victim throughput under the 8192-mask attack:\n\n";
  Printf.printf "     %-12s %14s %14s\n" "EMC slots" "emc-hit rate" "post[Gbps]";
  List.iter
    (fun emc_capacity ->
      let attack =
        { Scenario.default_attack with
          Scenario.start = 5.;
          attacker_exact_per_tick = 48 }
      in
      let p =
        { Scenario.default_params with
          Scenario.duration = 30.;
          victim_flows = 2000;
          victim_samples_per_tick = 200;
          attack = Some attack;
          datapath_config =
            { Scenario.default_params.Scenario.datapath_config with
              Pi_ovs.Datapath.emc_capacity } }
      in
      let r = Scenario.run p in
      let hit =
        mean_over r.Scenario.samples (fun s -> s.Scenario.emc_hit_rate) 20. 30.
      in
      Printf.printf "     %-12d %14.3f %14.3f\n" emc_capacity hit
        r.Scenario.post_attack_mean_gbps)
    [ 1024; 8192; 65536 ];
  Printf.printf
    "\n  reading: a slow refresh (> idle timeout) cannot sustain the mask\n\
    \  explosion, so the 10 s idle timeout lower-bounds the covert rate;\n\
    \  growing the EMC raises the victim's hit rate but misses still pay\n\
    \  the full scan, so throughput only partially recovers.\n"

(* ------------------------------------------------------------------ *)
(* Megaflow fixtures for the hot-path rows                             *)
(* ------------------------------------------------------------------ *)

let mask_counts = [ 1; 8; 64; 512; 8192 ]

(* Mask [i] of an [n]-mask attack set: an ip_src prefix of
   [(i mod 32) + 1] bits, then (past 32 masks, or when [hashed]) a tp_dst
   prefix of [(i / 32 mod 16) + 1] bits, then (past 512 masks) a tp_src
   prefix of [(i / 512 mod 16) + 1] bits. *)
let attack_mask ?(hashed = false) n i =
  let open Pi_classifier in
  let mask = Mask.with_prefix Mask.empty Field.Ip_src ((i mod 32) + 1) in
  let mask =
    if n > 32 || hashed then
      Mask.with_prefix mask Field.Tp_dst ((i / 32 mod 16) + 1)
    else mask
  in
  if n > 512 then Mask.with_prefix mask Field.Tp_src ((i / 512 mod 16) + 1)
  else mask

(* A megaflow cache populated with [n] distinct attack-shaped masks
   whose entries all miss the probe flow. By default each mask holds one
   entry, the attack's steady state, so every subtable is a singleton
   (probed by a direct masked compare). [~hashed:true] adds a second
   entry under every mask, the sibling source block, so every subtable
   is probed through its hash table instead; those masks always carry
   the destination-port prefix, which keeps both entries off the probe
   flows. *)
let populated_megaflow ?config ?(hashed = false) n =
  let open Pi_classifier in
  let mf = Pi_ovs.Megaflow.create ?config () in
  for i = 0 to n - 1 do
    let src_len = (i mod 32) + 1 in
    let mask = attack_mask ~hashed n i in
    let insert src =
      let key = Flow.make ~ip_src:src ~tp_src:0xFFFF ~tp_dst:0xFFFF () in
      ignore
        (Pi_ovs.Megaflow.insert mf ~key ~mask ~action:Pi_ovs.Action.Drop
           ~revision:0 ~now:0. ())
    in
    insert 0xFFFFFFFFl;
    if hashed then
      insert (Int32.logxor 0xFFFFFFFFl (Int32.shift_left 1l (32 - src_len)))
  done;
  mf

let probe_flow = Pi_classifier.Flow.make ~ip_src:0l ~tp_src:0 ~tp_dst:0 ()

(* A one-packet megaflow lookup, as the datapath runs one:
   [Megaflow.walk_batch] over a burst of one, then its commit — hinted
   through [cache] when given, probes reported into [stats]. The
   one-slot scratch is made once, so each lookup allocates nothing. *)
let lookup1 ?cache ?(stats = Pi_ovs.Megaflow.lookup_stats ()) mf =
  let flows = [| probe_flow |] and idx = [| 0 |] in
  let out_entry = [| None |] and out_probes = [| 0 |] and out_tbl = [| 0 |] in
  fun flow ->
    flows.(0) <- flow;
    Pi_ovs.Megaflow.walk_batch mf flows ~idx ~n:1 ~out_entry ~out_probes
      ~out_tbl;
    let probes = out_probes.(0) and tbl = out_tbl.(0) in
    match cache with
    | Some cache ->
      Pi_ovs.Megaflow.commit_walk_hinted mf stats cache flow out_entry.(0)
        ~now:0. ~pkt_len:100 ~probes ~tbl
    | None ->
      Pi_ovs.Megaflow.commit_walk mf stats out_entry.(0) ~now:0. ~pkt_len:100
        ~probes ~tbl;
      out_entry.(0)

(* The worst case for the megaflow block summaries: Fig. 2
   complement-prefix singletons over [attack_mask n i]. Each key agrees
   with [probe_flow] on every constrained bit but the last bit of each
   prefix, so no entry matches the probe and the walk goes all the way.
   The masks are minted as a seeded shuffle of pairs [(i, i lxor p)],
   where [p] flips the low bit of every prefix length in use, so the two
   subtables of each aligned pair differ in the length of every
   constrained field. Where two keys' prefix lengths differ, the shorter
   one's flipped bit is the longer one's probe bit; no such bit is agreed
   by both, so the summary of any run of whole pairs pins only bits equal
   to [probe_flow]'s and admits it: no block can be skipped. Needs an
   even [n] of at least 2. *)
let admit_megaflow n =
  let open Pi_classifier in
  let p = 1 lor (if n > 32 then 32 else 0) lor (if n > 512 then 512 else 0) in
  let complement_key mask =
    List.fold_left
      (fun key f ->
        match Mask.prefix_len mask f with
        | Some l when l > 0 -> Flow.with_field key f (1 lsl (Field.width f - l))
        | _ -> key)
      probe_flow
      [ Field.Ip_src; Field.Tp_dst; Field.Tp_src ]
  in
  let mf = Pi_ovs.Megaflow.create () in
  let evens = Array.init (n / 2) (fun k -> 2 * k) in
  Pi_pkt.Prng.shuffle (Pi_pkt.Prng.create 11L) evens;
  Array.iter
    (fun i ->
      List.iter
        (fun i ->
          let mask = attack_mask n i in
          ignore
            (Pi_ovs.Megaflow.insert mf ~key:(complement_key mask) ~mask
               ~action:Pi_ovs.Action.Drop ~revision:0 ~now:0. ()))
        [ i; i lxor p ])
    evens;
  let stats = Pi_ovs.Megaflow.lookup_stats () in
  (match lookup1 ~stats mf probe_flow with
   | None when stats.Pi_ovs.Megaflow.s_probes = n -> ()
   | _ -> failwith "admit_megaflow: the probe must miss after n probes");
  Pi_ovs.Megaflow.reset_stats mf;
  mf

(* The attack-walk shape for the group summaries: [populated_megaflow n]
   plus a second entry in the 32-bit-source subtable of three blocks far
   apart (blocks 40, 130 and 220 of 32 subtables). The new key keeps the
   source's last bit but clears its first and every port bit, so it
   agrees with the block's other keys on no bit that every mask of the
   block constrains: those blocks, and the groups holding them, pin
   nothing and admit every probe, while every other block and group pins
   a set first source bit and rejects [probe_flow]. No key matches a
   probe with a source below 2^31 - 1, so the walk still misses. *)
let grouped_megaflow n =
  let open Pi_classifier in
  let mf = populated_megaflow n in
  List.iter
    (fun b ->
      ignore
        (Pi_ovs.Megaflow.insert mf
           ~key:(Flow.make ~ip_src:0x7FFFFFFFl ~tp_src:0 ~tp_dst:0 ())
           ~mask:(attack_mask n ((32 * b) + 31))
           ~action:Pi_ovs.Action.Drop ~revision:0 ~now:0. ()))
    [ 40; 130; 220 ];
  (match lookup1 mf probe_flow with
   | None -> ()
   | Some _ -> failwith "grouped_megaflow: the probe must miss");
  Pi_ovs.Megaflow.reset_stats mf;
  mf

(* ------------------------------------------------------------------ *)
(* hotpath: ns, cycles and minor-heap words per op on the real         *)
(* structures                                                          *)
(* ------------------------------------------------------------------ *)

(* Every row is timed on the monotonic clock and also counts minor-heap
   words per op: the TSS walk multiplies whatever the per-probe cost is
   by the injected mask count, so a single boxed intermediate per field
   turns into megabytes per packet at 8192 masks. Each row is declared
   once, as a [hot_row]; the printed table, BENCH_hotpath.json (stable
   sorted keys, like BENCH_fig3.json: the perf trajectory future PRs
   are diffed against) and both gates are folds over the list of rows.

   The gates run on every run and print their verdicts; the program
   exits 1 after its last experiment if either failed:
     zero-alloc  every steady-state lookup regime (EMC hit, hinted
                 megaflow hit at any mask count, the full TSS walk, the
                 sharded batch path) allocates nothing on the minor
                 heap, and an upcall-remint install takes at most
                 [remint_words_budget] words. (The other churn, upcall
                 and ported rows are ungated: inserting rules,
                 synthesising megaflows and building packets allocate.)
     batch       the batch walk costs no more than the per-packet walk
                 at >= 512 masks.

   PI_BENCH_QUICK=1 reduces the iteration counts (CI smoke). *)

(* Minor words one synchronous upcall-and-install may take in the
   [upcall-remint] row: the megaflow entry (11) and its [Some] (2), the
   classifier's [Some rule] (2), and the odd summary narrowing (about
   2.5) — 19.5 measured. Copying the mask or the key per entry, or
   allocating a subtable per re-minted mask, breaks it. *)
let remint_words_budget = 24.

type hot = {
  ns_per_pkt : float;
  cycles_per_pkt : float;   (* wall-clock ns at the cost model's GHz *)
  minor_words_per_pkt : float;
}

let hot_per h k =
  let d v = v /. float_of_int k in
  { ns_per_pkt = d h.ns_per_pkt;
    cycles_per_pkt = d h.cycles_per_pkt;
    minor_words_per_pkt = d h.minor_words_per_pkt }

type hot_gate =
  | Zero_alloc                 (* no minor word per op *)
  | Words_budget of float      (* at most this many minor words per op *)
  | Ungated

type hot_row = {
  name : string;               (* printed *)
  masks : int option;          (* printed; rules for the classify rows *)
  path : string list;          (* BENCH_hotpath.json keys of the row *)
  gate : hot_gate;
  scalar : hot option;         (* the batch gate's per-packet partner *)
  m : hot;                     (* the measurement, per op *)
}

let hot_quick () =
  match Sys.getenv_opt "PI_BENCH_QUICK" with
  | None | Some ("" | "0") -> false
  | Some _ -> true

(* [quick_floor] keeps PI_BENCH_QUICK from dropping below a stable
   iteration count; rows whose [f] covers a whole burst (32 packets per
   call) pass a lower floor, since the default would multiply their
   quick-mode cost by the burst width. *)
let hot_measure ?(quick_floor = 1000) ~iters f =
  let iters = if hot_quick () then max quick_floor (iters / 50) else iters in
  for _ = 1 to min 1000 iters do f () done;
  (* [Gc.minor_words] returns a boxed float, so the pair of reads
     bracketing the timed loop allocates a constant couple of words of
     its own. Measure that constant with an empty bracket and subtract
     it: a genuinely allocation-free loop then reports exactly 0, which
     is what the zero-alloc gate demands. Rounding to 1/1000 word kills
     the residual float noise without hiding any real per-packet
     allocation (the smallest possible is a 2-word block). *)
  let overhead =
    let o0 = Gc.minor_words () in
    let o1 = Gc.minor_words () in
    o1 -. o0
  in
  let t0 = Monotonic_clock.now () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do f () done;
  let w1 = Gc.minor_words () in
  let t1 = Monotonic_clock.now () in
  let per v = v /. float_of_int iters in
  let words =
    Float.max 0. (Float.round (per (w1 -. w0 -. overhead) *. 1000.) /. 1000.)
  in
  let ns = per (Int64.to_float (Int64.sub t1 t0)) in
  { ns_per_pkt = ns;
    cycles_per_pkt = ns *. (Pi_ovs.Cost_model.default.Pi_ovs.Cost_model.cpu_hz /. 1e9);
    minor_words_per_pkt = words }

(* The slow-path analogue of [populated_megaflow]: n rules, each under a
   distinct attack-shaped mask, none matching the probe flow. *)
let attack_ruleset n =
  let open Pi_classifier in
  List.init n (fun i ->
      let src_len = (i mod 32) + 1 in
      let dport_len = (i / 32 mod 16) + 1 in
      let sport_len = (i / 512 mod 16) + 1 in
      let pat = Pattern.with_prefix Pattern.any Field.Ip_src ~len:src_len 0xFFFFFFFF in
      let pat =
        if n > 32 then Pattern.with_prefix pat Field.Tp_dst ~len:dport_len 0xFFFF
        else pat
      in
      let pat =
        if n > 512 then Pattern.with_prefix pat Field.Tp_src ~len:sport_len 0xFFFF
        else pat
      in
      Rule.make ~priority:1 ~pattern:pat ~action:Pi_ovs.Action.Drop ())

(* The hot-path rows, in measurement order. *)
let hotpath_rows () =
  let open Pi_classifier in
  let rows = ref [] in
  let record ?n ?(gate = Ungated) ?scalar name path m =
    rows := { name; masks = n; path; gate; scalar; m } :: !rows
  in
  let key n = Printf.sprintf "%05d" n in
  (* one row per count, at [json]/<count> *)
  let per_count ?gate ?(counts = mask_counts) name json measure =
    List.iter (fun n -> record ~n ?gate name [ json; key n ] (measure n)) counts
  in
  (* 1. Steady-state EMC hit: the benign fast path. *)
  (let emc = Pi_ovs.Emc.create (Pi_pkt.Prng.create 1L) () in
   Pi_ovs.Emc.insert_forced emc probe_flow 42;
   record ~gate:Zero_alloc "emc-hit" [ "emc_hit" ]
     (hot_measure ~iters:2_000_000 (fun () ->
          ignore (Pi_ovs.Emc.lookup emc probe_flow))));
  (* 2. Hinted megaflow hit: kernel-style mask cache, warm hint. The
     hint is consulted after the one-packet walk, as the datapath does
     for every kernel-flavour packet, so this row pays the full scan
     (in wall-clock time) though it is charged one probe. *)
  per_count ~gate:Zero_alloc "mf-hit-hinted" "mf_hit_hinted" (fun n ->
      let mf = populated_megaflow n in
      ignore
        (Pi_ovs.Megaflow.insert mf ~key:probe_flow ~mask:Mask.exact
           ~action:Pi_ovs.Action.Drop ~revision:0 ~now:0. ());
      let lookup = lookup1 ~cache:(Pi_ovs.Mask_cache.create ()) mf in
      ignore (lookup probe_flow);
      hot_measure ~iters:500_000 (fun () -> ignore (lookup probe_flow)));
  (* 3. Full TSS walk: every injected mask probed, no hit (the attack's
     per-packet cost on the victim). *)
  per_count ~gate:Zero_alloc "tss-walk" "tss_walk" (fun n ->
      let lookup = lookup1 (populated_megaflow n) in
      hot_measure ~iters:(max 2000 (400_000 / n)) (fun () ->
          ignore (lookup probe_flow)));
  (* 4. Upcall: slow-path classification + megaflow synthesis. *)
  per_count "upcall" "upcall" (fun n ->
      let sp = Pi_ovs.Slowpath.create () in
      Pi_ovs.Slowpath.install sp (attack_ruleset n);
      hot_measure ~iters:(max 100 (100_000 / n)) (fun () ->
          ignore (Pi_ovs.Slowpath.upcall sp probe_flow)));
  (* 4b. Upcall re-mint: the write side of mask churn, through the real
     datapath. Each op revalidates past the idle timeout, which evicts
     every megaflow, then sends the 512 covert flows of the src+dport
     variant again in bursts of 32: each one misses, upcalls and
     re-mints its megaflow and mask. Reported per install, and held to
     [remint_words_budget] minor words per install by the zero-alloc
     gate. *)
  (let spec =
     Policy_gen.default_spec ~variant:Variant.Src_dport
       ~allow_src:(ip "10.0.0.10") ()
   in
   let dp = Pi_ovs.Datapath.create (Pi_pkt.Prng.create 1L) () in
   Pi_ovs.Datapath.install_rules dp
     (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2)
        (Policy_gen.acl spec));
   let flows =
     Array.of_list
       (Packet_gen.flows (Packet_gen.make ~spec ~dst:(ip "10.1.0.3") ()))
   in
   let n = Array.length flows in
   let b = Pi_ovs.Batch.create ~capacity:32 in
   let now = [| 0. |] in
   let remint () =
     now.(0) <- now.(0) +. 11.;
     ignore (Pi_ovs.Datapath.revalidate dp ~now:now.(0));
     let i = ref 0 in
     while !i < n do
       Pi_ovs.Batch.clear b;
       for j = !i to min n (!i + 32) - 1 do
         Pi_ovs.Batch.push b flows.(j) ~pkt_len:64
       done;
       Pi_ovs.Datapath.process_batch dp b ~now:now.(0);
       i := !i + 32
     done
   in
   let u0 = Pi_ovs.Datapath.n_upcalls dp in
   remint ();
   (* the divisor: every flow of an op upcalls and installs once *)
   if Pi_ovs.Datapath.n_upcalls dp - u0 <> n then
     failwith "upcall-remint: an op does not install every flow once";
   record ~n ~gate:(Words_budget remint_words_budget) "upcall-remint"
     [ "upcall_remint" ]
     (hot_per (hot_measure ~quick_floor:20 ~iters:1_000 remint) n));
  (* 4c. Revalidation, per [Datapath.revalidate] call, over the covert
     round's singleton megaflows (512 for src+dport, 8192 for
     src+sport+dport), all stamped at t = 100. [revalidate-skip]: nothing
     is idle and the rules are unchanged, so the sweep is skipped.
     [revalidate-sweep]: before each call one covert packet is sent
     stamped 11 s in the past (a hit on the first call, a re-mint
     after), so that one entry is idle and the megaflow and EMC sweeps
     run in full, evicting it. *)
  List.iter
    (fun variant ->
      let spec =
        Policy_gen.default_spec ~variant ~allow_src:(ip "10.0.0.10") ()
      in
      let dp = Pi_ovs.Datapath.create (Pi_pkt.Prng.create 1L) () in
      Pi_ovs.Datapath.install_rules dp
        (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2)
           (Policy_gen.acl spec));
      let flows =
        Array.of_list
          (Packet_gen.flows (Packet_gen.make ~spec ~dst:(ip "10.1.0.3") ()))
      in
      let b = Pi_ovs.Batch.create ~capacity:32 in
      Array.iteri
        (fun i f ->
          Pi_ovs.Batch.push b f ~pkt_len:64;
          if Pi_ovs.Batch.length b = 32 || i = Array.length flows - 1 then begin
            Pi_ovs.Datapath.process_batch dp b ~now:100.;
            Pi_ovs.Batch.clear b
          end)
        flows;
      let n = Pi_ovs.Datapath.n_megaflows dp in
      ignore (Pi_ovs.Datapath.revalidate dp ~now:100.);
      record ~n "revalidate-skip" [ "revalidate"; key n; "skip" ]
        (hot_measure ~iters:200_000 (fun () ->
             ignore (Pi_ovs.Datapath.revalidate dp ~now:100.)));
      Pi_ovs.Batch.clear b;
      Pi_ovs.Batch.push b flows.(0) ~pkt_len:64;
      record ~n "revalidate-sweep" [ "revalidate"; key n; "sweep" ]
        (hot_measure ~quick_floor:20 ~iters:(max 200 (1_000_000 / n))
           (fun () ->
             Pi_ovs.Datapath.process_batch dp b ~now:89.;
             if Pi_ovs.Datapath.revalidate dp ~now:100. <> 1 then
               failwith "revalidate-sweep: a sweep must evict one entry")))
    [ Variant.Src_dport; Variant.Src_sport_dport ];
  (* 5. Megaflow update churn: the revalidator's view of the attack.
     Each op installs a fresh exact-mask entry (a new covert flow being
     cached) on top of the n injected masks; every 256 ops a
     revalidation sweep evicts the whole churn batch, exercising
     backward-shift deletion, arena compaction and the empty-subtable
     drop. Prices insert/remove on the flat stores — allocation here is
     expected (entries are built), so this row is ungated. *)
  per_count "mf-churn" "mf_churn" (fun n ->
      let mf =
        populated_megaflow
          ~config:{ Pi_ovs.Megaflow.default_config with
                    Pi_ovs.Megaflow.idle_timeout = 1e9 }
          n
      in
      let ctr = ref 0 in
      hot_measure ~iters:(max 2000 (200_000 / n)) (fun () ->
          incr ctr;
          let key = Flow.make ~ip_dst:(Int32.of_int (!ctr land 0xFFFFF)) () in
          ignore
            (Pi_ovs.Megaflow.insert mf ~key ~mask:Mask.exact
               ~action:Pi_ovs.Action.Drop ~revision:1 ~now:0. ());
          if !ctr land 255 = 0 then
            ignore
              (Pi_ovs.Megaflow.revalidate mf ~now:0.
                 ~keep:(fun e -> e.Pi_ovs.Megaflow.revision = 0) ())));
  (* 6. Classifier rule churn: slow-path policy updates under attack.
     Each op inserts a priority-2 rule and removes it again by
     predicate; the removal walks every one of the n attack subtables,
     so this prices the flat-store scan the revalidator pays per policy
     delta. *)
  per_count "tss-churn" "tss_churn" (fun n ->
      let cls = Tss.create () in
      List.iter (Tss.insert cls) (attack_ruleset n);
      let churn_pat = Pattern.with_tp_dst Pattern.any 7 in
      hot_measure ~iters:(max 400 (50_000 / n)) (fun () ->
          Tss.insert cls
            (Rule.make ~priority:2 ~pattern:churn_pat
               ~action:Pi_ovs.Action.Drop ());
          ignore (Tss.remove cls (fun ru -> ru.Rule.priority = 2))));
  (* 7. Sharded batch fast path: RSS steering into the per-shard scratch
     plus, in the pmd-batch row, an EMC hit per packet. The steering
     scratch is preallocated int arrays (not a cons cell per packet), so
     the per-packet budget there is the EMC hit plus the result array —
     independent of batch size and shard count. The same flow set split
     4 ways keeps the EMCs free of 2-way collision thrash. Two more
     regimes ride the same path: megaflow hits (EMC off, every packet
     walks its subtables) and charged rx bursts (a nonzero per-burst
     cost). Each shard's per-stage profile is a view over the counts
     this path keeps, so all three rows price the counting too, and all
     three join the zero-alloc gate. *)
  let pmd_regime ~emc ~batch_cycles =
    let config =
      { Pi_ovs.Pmd.default_config with
        Pi_ovs.Pmd.n_shards = 4;
        parallel = false;
        batch_cycles;
        dp =
          { Pi_ovs.Datapath.default_config with
            Pi_ovs.Datapath.emc_enabled = emc } }
    in
    let pmd = Pi_ovs.Pmd.create ~config (Pi_pkt.Prng.create 7L) () in
    let rng = Pi_pkt.Prng.create 9L in
    let pkts =
      Array.init 256 (fun _ ->
          (Flow.make ~ip_src:(Pi_pkt.Prng.int32 rng) ~ip_proto:17
             ~tp_src:(Pi_pkt.Prng.int rng 65536)
             ~tp_dst:(Pi_pkt.Prng.int rng 65536) (),
           100))
    in
    (* [process_batch] only writes the result columns, so one fill
       serves every round — like an rx ring reusing its descriptors. *)
    let batch = Pi_ovs.Batch.create ~capacity:(Array.length pkts) in
    Pi_ovs.Batch.fill batch pkts;
    (* warm: first pass installs the (tiny) megaflow set and fills the
       EMCs; afterwards every packet hits on its shard *)
    Pi_ovs.Pmd.process_batch pmd batch ~now:0.;
    Pi_ovs.Pmd.process_batch pmd batch ~now:0.;
    let now = 0. in
    hot_per
      (hot_measure ~iters:5_000 (fun () ->
           Pi_ovs.Pmd.process_batch pmd batch ~now))
      (Array.length pkts)
  in
  record ~gate:Zero_alloc "pmd-batch" [ "pmd_batch" ]
    (pmd_regime ~emc:true ~batch_cycles:0.);
  List.iter
    (fun (name, emc, batch_cycles) ->
      record ~gate:Zero_alloc name [ "pmd_regimes"; name ]
        (pmd_regime ~emc ~batch_cycles))
    [ ("pmd-mf-hit", false, 0.); ("pmd-charged", true, 100.) ];
  (* 8./9. Subtable-major batch walk vs the same 32 flows looked up one
     at a time: the dpcls-style amortisation the vectorised dataplane
     rides on. [Megaflow.walk_batch] probes one subtable for the
     whole burst before touching the next, so the per-mask loads
     amortise across the burst; at attack-sized mask sets the batch
     walk must not lose to 32 one-packet walks (each the sequential
     scan, then its commit; the batch gate checks this at >= 512
     masks for every family but [tss-walk-grouped]). Both variants are
     steady-state lookups and sit inside the zero-alloc gate. *)
  let burst = 32 in
  let batch_vs_scalar ?(counts = mask_counts) ?(batch_gate = true) which json
      setup =
    List.iter
      (fun n ->
        let mf, flows = setup n in
        let idx = Array.init burst (fun i -> i) in
        let stats = Pi_ovs.Megaflow.lookup_stats () in
        let lookup = lookup1 mf in
        let out_entry = Array.make burst None in
        let out_probes = Array.make burst 0 in
        let out_tbl = Array.make burst 0 in
        let iters = max 50 (50_000 / n) in
        let run_batch () =
          hot_measure ~quick_floor:100 ~iters (fun () ->
              Pi_ovs.Megaflow.walk_batch mf flows ~idx ~n:burst ~out_entry
                ~out_probes ~out_tbl;
              for j = 0 to burst - 1 do
                Pi_ovs.Megaflow.commit_walk mf stats out_entry.(j) ~now:0.
                  ~pkt_len:100 ~probes:out_probes.(j) ~tbl:out_tbl.(j)
              done)
        and run_scalar () =
          hot_measure ~quick_floor:100 ~iters (fun () ->
              for i = 0 to burst - 1 do
                ignore (lookup flows.(i))
              done)
        in
        (* Interleaved best-of-3: these two variants sit within a few
           percent of each other below ~1k masks, where run-level drift
           (frequency scaling, neighbours on the host) exceeds the gap
           — alternating the measurements and keeping each variant's
           best cancels the drift, which a longer single run cannot. *)
        let best a b = if b.ns_per_pkt < a.ns_per_pkt then b else a in
        let rec reps k (bb, bs) =
          if k = 0 then (bb, bs)
          else reps (k - 1) (best bb (run_batch ()), best bs (run_scalar ()))
        in
        let b, s = reps 2 (run_batch (), run_scalar ()) in
        let b = hot_per b burst and s = hot_per s burst in
        let scalar = if batch_gate then Some s else None in
        record ~n ~gate:Zero_alloc ?scalar (which ^ "-batch")
          [ json; key n; "batch" ] b;
        record ~n ~gate:Zero_alloc (which ^ "-scalar") [ json; key n; "scalar" ]
          s)
      counts
  in
  (* 32 distinct flows that miss every injected mask: the covert-stream
     regime, full walk per packet. *)
  let miss_flows =
    Array.init burst (fun i ->
        Flow.make ~ip_src:(Int32.of_int i) ~tp_src:i ~tp_dst:0 ())
  in
  batch_vs_scalar "tss-walk" "tss_walk_batch" (fun n ->
      (populated_megaflow n, miss_flows));
  (* The same full walk over two-entry subtables: the hash-table probe
     path, which the singleton rows above never reach. *)
  batch_vs_scalar "tss-walk-hashed" "tss_walk_hashed_batch" (fun n ->
      (populated_megaflow ~hashed:true n, miss_flows));
  (* The same full walk with nothing for the block summaries to skip
     (see [admit_megaflow]): the design's worst case, and the row whose
     ns/probe is the measured cost of a subtable probe. The 32 flows
     differ only in ip_dst, which no mask constrains. A one-mask set
     cannot be built this way, so the row starts at 8 masks. *)
  batch_vs_scalar
    ~counts:(List.filter (fun n -> n >= 2) mask_counts)
    "tss-walk-admit" "tss_walk_admit_batch"
    (fun n ->
      ( admit_megaflow n,
        Array.init burst (fun i -> Flow.with_field probe_flow Field.Ip_dst i) ));
  (* The attack-walk shape: 8192 masks where a few blocks admit the
     probes (see [grouped_megaflow]), so a packet is rejected by most
     group summaries and walks only the admitting blocks. *)
  batch_vs_scalar ~counts:[ 8192 ] ~batch_gate:false "tss-walk-grouped"
    "tss_walk_grouped_batch" (fun n -> (grouped_megaflow n, miss_flows));
  (* The same walk ending in a hit: an exact-mask subtable appended
     AFTER the n attack masks, so both variants pay the full scan and
     then the hit bookkeeping. *)
  batch_vs_scalar "mf-hit" "mf_hit_batch" (fun n ->
      let mf = populated_megaflow n in
      Array.iter
        (fun f ->
          ignore
            (Pi_ovs.Megaflow.insert mf ~key:f ~mask:Mask.exact
               ~action:Pi_ovs.Action.Drop ~revision:0 ~now:0. ()))
        miss_flows;
      (mf, miss_flows));
  (* 10. Mask-set bookkeeping on the hot path (the mask_limit checks):
     O(1), so flat across the mask counts. *)
  per_count "mask-bookkeeping" "mask_bookkeeping" (fun n ->
      let mf = populated_megaflow n in
      let absent = Mask.with_prefix Mask.empty Field.Ip_dst 17 in
      hot_measure ~iters:2_000_000 (fun () ->
          ignore (Pi_ovs.Megaflow.n_masks mf);
          ignore (Pi_ovs.Megaflow.has_mask mf absent)));
  (* 11. The structures around the cache: a prefix-trie lookup, the
     slow path's upcall of the probe flow under the src+sport+dport
     whitelist ACL, packet serialisation and parsing, and the flow
     hash. *)
  (let trie = Trie.create ~width:32 in
   Trie.insert trie ~value:0x0A00000A ~len:32;
   record "trie-lookup" [ "trie_lookup" ]
     (hot_measure ~iters:2_000_000 (fun () ->
          ignore (Trie.lookup trie 0x0B00000A))));
  (let sp = Pi_ovs.Slowpath.create () in
   let spec =
     Policy_gen.default_spec ~variant:Variant.Src_sport_dport
       ~allow_src:(ip "10.0.0.10") ()
   in
   Pi_ovs.Slowpath.install sp
     (Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2)
        (Policy_gen.acl spec));
   record "upcall-acl" [ "upcall_acl" ]
     (hot_measure ~iters:500_000 (fun () ->
          ignore (Pi_ovs.Slowpath.upcall sp probe_flow))));
  (let pkt =
     Pi_pkt.Packet.udp ~src:(ip "10.0.0.1") ~dst:(ip "10.1.0.2") ~src_port:1
       ~dst_port:2 ~payload_len:72 ()
   in
   let buf = Pi_pkt.Packet.serialize pkt in
   record "packet-serialize" [ "packet_serialize" ]
     (hot_measure ~iters:500_000 (fun () ->
          ignore (Pi_pkt.Packet.serialize pkt)));
   record "packet-parse" [ "packet_parse" ]
     (hot_measure ~iters:500_000 (fun () -> ignore (Pi_pkt.Packet.parse buf))));
  record "flow-hash" [ "flow_hash" ]
    (hot_measure ~iters:2_000_000 (fun () -> ignore (Flow.hash probe_flow)));
  (* 12. Rule-set classifiers head to head (the Gupta-McKeown design
     space): n exact-match rules on tp_dst, worst-case probe. The count
     column is the rule count. The TSS row is a one-slot
     [Tss.find_wc_batch], the classifier's only walk, un-wildcarding
     included. *)
  let engine_rules n =
    List.init n (fun i ->
        Rule.make ~priority:1 ~pattern:(Pattern.with_tp_dst Pattern.any i)
          ~action:i ())
  in
  let engine_probe = Flow.make ~tp_dst:0xFFFF () in
  let per_engine name json lookup =
    per_count ~counts:[ 16; 128; 1024 ] name json (fun n ->
        let f = lookup (engine_rules n) in
        hot_measure ~iters:(max 2000 (1_000_000 / n)) f)
  in
  per_engine "classify-linear" "classify_linear" (fun rules ->
      let cls = Linear.of_rules rules in
      fun () -> ignore (Linear.lookup cls engine_probe));
  per_engine "classify-tss" "classify_tss" (fun rules ->
      let cls = Tss.create () in
      List.iter (Tss.insert cls) rules;
      let bs = Tss.batch ~capacity:1 in
      let flows = [| engine_probe |] and idx = [| 0 |] in
      fun () -> Tss.find_wc_batch cls bs flows ~idx ~n:1);
  per_engine "classify-dtree" "classify_dtree" (fun rules ->
      let cls = Dtree.build ~leaf_size:4 rules in
      fun () -> ignore (Dtree.lookup cls engine_probe));
  List.rev !rows

(* Set when a hot-path gate fails; the program exits 1 after its last
   experiment. *)
let gates_failed = ref false

let run_hotpath () =
  section
    "hotpath — cycles, ns and minor-heap words per packet on the real\n\
    \  structures (GC-aware; the allocation budget future perf PRs are\n\
    \  held to)";
  let rows = hotpath_rows () in
  Printf.printf "  %-22s %8s %14s %14s %18s\n" "regime" "masks" "ns/pkt"
    "cycles/pkt" "minor words/pkt";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %8s %14.1f %14.0f %18.3f\n" r.name
        (match r.masks with Some n -> string_of_int n | None -> "-")
        r.m.ns_per_pkt r.m.cycles_per_pkt r.m.minor_words_per_pkt)
    rows;
  Printf.printf "  (a classify-* row's count is its rule count)\n";
  let find name n =
    List.find (fun r -> r.name = name && r.masks = Some n) rows
  in
  (* The measured cost of one subtable probe: the walk that skips
     nothing, beside the cost model's coefficient. *)
  let cm = Pi_ovs.Cost_model.default in
  let per_probe name = (find name 8192).m.ns_per_pkt /. 8192. in
  Printf.printf
    "\n  subtable probe, measured (tss-walk-admit @8192): %.2f ns batch, %.2f ns\n\
    \  scalar; cost model: mf_probe %.0f cycles = %.1f ns at %.1f GHz\n"
    (per_probe "tss-walk-admit-batch") (per_probe "tss-walk-admit-scalar")
    cm.Pi_ovs.Cost_model.mf_probe
    (cm.Pi_ovs.Cost_model.mf_probe /. cm.Pi_ovs.Cost_model.cpu_hz *. 1e9)
    (cm.Pi_ovs.Cost_model.cpu_hz /. 1e9);
  let path = "BENCH_hotpath.json" in
  write_json_tree path
    (List.concat_map
       (fun r ->
         List.map
           (fun (k, v) -> (r.path @ [ k ], json_num v))
           [ ("cycles_per_pkt", r.m.cycles_per_pkt);
             ("minor_words_per_pkt", r.m.minor_words_per_pkt);
             ("ns_per_pkt", r.m.ns_per_pkt) ])
       rows);
  Printf.printf "\n  hot-path trajectory written to %s\n" path;
  (* Both gates check every row and print their verdicts, so one
     failing gate or row does not hide another. *)
  let at r =
    match r.masks with Some n -> Printf.sprintf " @%d masks" n | None -> ""
  in
  let alloc_ok r =
    let words = r.m.minor_words_per_pkt in
    match r.gate with
    | Zero_alloc when words > 0. ->
      Printf.eprintf
        "FAIL: steady-state %s%s allocates %.3f minor words/packet (want 0)\n"
        r.name (at r) words;
      false
    | Words_budget budget when words > budget ->
      Printf.eprintf "FAIL: %s%s allocates %.3f minor words/op (budget %g)\n"
        r.name (at r) words budget;
      false
    | Zero_alloc | Words_budget _ | Ungated -> true
  in
  let batch_ok r =
    match (r.scalar, r.masks) with
    | Some s, Some n
      when n >= 512 && r.m.cycles_per_pkt > s.cycles_per_pkt ->
      Printf.eprintf
        "FAIL: %s @%d masks: batch walk costs %.0f cycles/pkt vs %.0f \
         per-packet (want batch <= per-packet)\n"
        r.name n r.m.cycles_per_pkt s.cycles_per_pkt;
      false
    | _ -> true
  in
  let pp_labels ppf l =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
      Format.pp_print_string ppf l
  in
  (* [label] names a row's gated family ([None]: not in this gate) *)
  let verdict what label check =
    let ok = List.fold_left (fun ok r -> check r && ok) true rows in
    if not ok then gates_failed := true;
    let labels =
      List.fold_left
        (fun acc r ->
          match label r with
          | Some l when not (List.mem l acc) -> l :: acc
          | Some _ | None -> acc)
        [] rows
    in
    Format.printf "  @[<hov 2>%s (%a):@ %s@]@." what pp_labels
      (List.rev labels) (if ok then "OK" else "FAILED")
  in
  verdict "zero-alloc assertion"
    (fun r ->
      match r.gate with
      | Zero_alloc -> Some r.name
      | Words_budget w -> Some (Printf.sprintf "%s <= %g words/op" r.name w)
      | Ungated -> None)
    alloc_ok;
  verdict "batch <= per-packet at >= 512 masks"
    (fun r -> Option.map (fun _ -> r.name) r.scalar)
    batch_ok

(* ------------------------------------------------------------------ *)
(* wallclock: real pkts/sec of the two PMD execution engines            *)
(* ------------------------------------------------------------------ *)

(* Every experiment above reports the *model's* cycle accounting; this
   one measures wall-clock packet rates of the execution engines on the
   host CPU (bechamel's monotonic clock, CLOCK_MONOTONIC ns):

     det-parallel    deterministic mode, one throwaway domain per shard
                     per rx round (the historical engine)
     pipe-sync       pipeline mode, persistent worker domains behind
                     SPSC rings, synchronous upcalls (DESIGN.md §14)
     pipe-deferred   pipeline mode with a bounded upcall queue and the
                     dedicated handler domain

   on 1/2/4/8 shards under two warmed-up loads: a benign EMC-friendly
   victim workload, and the Fig. 3-style covert stream scanning the
   injected mask set (EMC off, so every packet pays the TSS walk).
   Both engines compute bit-identical results on the synchronous
   configurations — this experiment exists to price the engines, not
   the attack. Rows land in BENCH_wallclock.json (stable sorted keys).

   Env knobs: PI_BENCH_QUICK=1 (reduced rounds, CI smoke). *)

type wc_row = { wc_pkts : int; wc_ns : float; wc_masks : int }

let wc_mpps r = float_of_int r.wc_pkts /. (r.wc_ns /. 1e9) /. 1e6
let wc_ns_per_pkt r = r.wc_ns /. float_of_int r.wc_pkts

let wallclock_shards = [ 1; 2; 4; 8 ]

(* rx rounds of 256 packets, mirroring the scenario driver's tick *)
let wallclock_chop pool =
  let n = Array.length pool and batch = 256 in
  Array.init ((n + batch - 1) / batch) (fun i ->
      Array.sub pool (i * batch) (min batch (n - i * batch)))

let wallclock_measure ~rounds ~config ~rules pool =
  let pmd = Pi_ovs.Pmd.create ~config (Pi_pkt.Prng.create 11L) () in
  Fun.protect ~finally:(fun () -> Pi_ovs.Pmd.close pmd) @@ fun () ->
  Pi_ovs.Pmd.install_rules pmd rules;
  (* One Batch per rx round, filled once — [process_batch] only writes
     the result columns, so the rounds reuse them like rx descriptors. *)
  let batches =
    Array.map
      (fun pkts ->
        let b = Pi_ovs.Batch.create ~capacity:(Array.length pkts) in
        Pi_ovs.Batch.fill b pkts;
        b)
      (wallclock_chop pool)
  in
  let pass () =
    Array.iter (fun b -> Pi_ovs.Pmd.process_batch pmd b ~now:0.) batches
  in
  (* Warm up: the first pass resolves every miss (megaflow installs),
     the second settles the EMCs, so the timed window is steady-state. *)
  pass ();
  ignore (Pi_ovs.Pmd.service_upcalls pmd ~now:0.);
  pass ();
  ignore (Pi_ovs.Pmd.service_upcalls pmd ~now:0.);
  let t0 = Monotonic_clock.now () in
  for _ = 1 to rounds do pass () done;
  ignore (Pi_ovs.Pmd.service_upcalls pmd ~now:0.);
  let t1 = Monotonic_clock.now () in
  { wc_pkts = rounds * Array.length pool;
    wc_ns = Int64.to_float (Int64.sub t1 t0);
    wc_masks = Pi_ovs.Pmd.n_masks pmd }

let run_wallclock () =
  section
    "wallclock — real pkts/sec: persistent pipeline domains vs\n\
    \  spawn-per-batch deterministic parallelism (monotonic clock)";
  let quick = hot_quick () in
  (* benign: 4096 distinct victim-like flows, tiny whitelist, EMC on —
     after warm-up every packet is an EMC hit on its shard *)
  let pfx = Pi_pkt.Ipv4_addr.Prefix.of_string in
  let benign_rules =
    Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 1)
      (Pi_cms.Acl.whitelist [ Pi_cms.Acl.entry ~src:(pfx "10.0.0.0/8") () ])
  in
  let benign_pool =
    let rng = Pi_pkt.Prng.create 3L in
    Array.init 4096 (fun _ ->
        (Pi_classifier.Flow.make ~ip_src:(Pi_pkt.Prng.int32 rng)
           ~ip_dst:0x0A010003l ~ip_proto:6
           ~tp_src:(Pi_pkt.Prng.int rng 65536) ~tp_dst:443 (),
         1500))
  in
  (* attack: the covert stream of the src+dport variant (512 masks),
     EMC off — every packet walks its shard's injected mask set *)
  let spec =
    Policy_gen.default_spec ~variant:Variant.Src_dport
      ~allow_src:(ip "10.0.0.10") ()
  in
  let attack_rules =
    Pi_cms.Compile.compile ~allow:(Pi_ovs.Action.Output 2) (Policy_gen.acl spec)
  in
  let attack_pool =
    Array.of_list
      (List.map
         (fun f -> (f, 100))
         (Packet_gen.flows (Packet_gen.make ~spec ~dst:(ip "10.1.0.3") ())))
  in
  let emc_off =
    { Pi_ovs.Datapath.default_config with Pi_ovs.Datapath.emc_enabled = false }
  in
  let loads =
    [ ("benign", benign_rules, benign_pool, Pi_ovs.Datapath.default_config,
       if quick then 3 else 30);
      ("attack", attack_rules, attack_pool, emc_off, if quick then 2 else 15) ]
  in
  let modes dp =
    [ ("det-parallel", Pi_ovs.Pmd.Deterministic, dp);
      ("pipe-sync", Pi_ovs.Pmd.Pipeline, dp);
      ("pipe-deferred", Pi_ovs.Pmd.Pipeline,
       { dp with Pi_ovs.Datapath.upcall_queue = Pi_ovs.Upcall_queue.bounded 65536 }) ]
  in
  (* rows: (mode, load, shards) -> wc_row, computed load-major so the
     table prints as it is measured *)
  let results = ref [] in
  List.iter
    (fun (load, rules, pool, dp, rounds) ->
      Printf.printf "  %s load (%d flows, %d rounds):\n\n" load
        (Array.length pool) rounds;
      Printf.printf "    %-8s %14s %14s %14s %10s\n" "shards" "det[Mpps]"
        "sync[Mpps]" "defer[Mpps]" "sync/det";
      List.iter
        (fun n_shards ->
          let per_mode =
            List.map
              (fun (mode_name, mode, dp) ->
                let config =
                  { Pi_ovs.Pmd.default_config with
                    Pi_ovs.Pmd.n_shards;
                    parallel = true;
                    mode;
                    dp }
                in
                let r = wallclock_measure ~rounds ~config ~rules pool in
                results := ((mode_name, load, n_shards), r) :: !results;
                (mode_name, r))
              (modes dp)
          in
          let mpps name = wc_mpps (List.assoc name per_mode) in
          Printf.printf "    %-8d %14.3f %14.3f %14.3f %9.2fx\n" n_shards
            (mpps "det-parallel") (mpps "pipe-sync") (mpps "pipe-deferred")
            (mpps "pipe-sync" /. mpps "det-parallel"))
        wallclock_shards;
      Printf.printf "\n")
    loads;
  (* the headline claim: persistent domains beat spawn-per-batch once
     the spawn tax is paid several times per rx round *)
  List.iter
    (fun n_shards ->
      let find m l =
        List.assoc_opt (m, l, n_shards) !results
        |> Option.map wc_mpps |> Option.value ~default:nan
      in
      let det = find "det-parallel" "benign"
      and pipe = find "pipe-sync" "benign" in
      Printf.printf
        "  benign @%d shards: pipeline %.3f Mpps vs det-parallel %.3f Mpps (%.2fx)%s\n"
        n_shards pipe det (pipe /. det)
        (if n_shards >= 4 && pipe <= det then
           "  (!) expected the persistent domains to win here"
         else ""))
    wallclock_shards;
  (* BENCH_wallclock.json: mode -> load -> shards *)
  let path = "BENCH_wallclock.json" in
  write_json_tree path
    ((["quick"], fun b -> Buffer.add_string b (if quick then "true" else "false"))
     :: List.concat_map
          (fun ((m, l, n), r) ->
            List.map
              (fun (k, v) -> ([ "modes"; m; l; string_of_int n; k ], json_num v))
              [ ("masks", float_of_int r.wc_masks);
                ("ns_per_pkt", wc_ns_per_pkt r);
                ("pkts", float_of_int r.wc_pkts);
                ("pkts_per_sec", wc_mpps r *. 1e6) ])
          !results);
  Printf.printf "\n  wall-clock trajectory written to %s\n" path

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig2", run_fig2);
    ("masks", run_masks);
    ("throughput", run_throughput);
    ("fig3", run_fig3);
    ("shards", run_shards);
    ("mitigations", run_mitigations);
    ("ranking", run_ranking);
    ("sweep", run_sweep);
    ("hotpath", run_hotpath);
    ("wallclock", run_wallclock) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %S (available: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested;
  if !gates_failed then exit 1
