open Pi_pkt
open Pi_classifier
open Pi_ovs

type attack = {
  variant : Policy_injection.Variant.t;
  start : float;
  stop : float option;
  trusted_src : Ipv4_addr.t;
  allow_sport : int;
  allow_dport : int;
  proto : Pi_cms.Acl.protocol;
  covert_pkt_len : int;
  refresh_period : float;
  attacker_exact_per_tick : int;
}

let default_attack =
  { variant = Policy_injection.Variant.Src_sport_dport;
    start = 60.;
    stop = None;
    trusted_src = Ipv4_addr.of_string "10.0.0.10";
    allow_sport = 53;
    allow_dport = 80;
    proto = Pi_cms.Acl.Udp;
    covert_pkt_len = 100;
    refresh_period = 5.;
    attacker_exact_per_tick = 64 }

type sample = {
  time : float;
  victim_gbps : float;
  offered_gbps : float;
  n_masks : int;
  n_megaflows : int;
  emc_occupancy : int;
  shard_masks : int array;
  shard_gbps : float array;
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
  victim_flows : int;
  victim_churn : float;
  victim_samples_per_tick : int;
  victim_allowed_net : Ipv4_addr.Prefix.t;
  background_services : int;
      (* other pods on the host with their own policies and a trickle of
         traffic; gives the cache its realistic pre-attack handful of
         megaflows (Fig. 3's y2 axis starts around 10, not 1) *)
  attack : attack option;
  n_shards : int;
  batch_size : int;
  batch_cycles : float;
  pipeline : bool;
      (* run the default Pmd backend in run-to-completion pipeline mode
         (persistent worker domains behind SPSC rings) instead of the
         deterministic oracle; ignored when [backend] is given *)
  backend : Dataplane.backend option;
      (* None: a Pmd backend built from n_shards/batch_size/batch_cycles/
         datapath_config — the historical scenario, bit for bit. Some b:
         run b instead; the fields above are then ignored except for
         [datapath_config.cost.cpu_hz], which still sets the per-core
         budget, [datapath_config.megaflow.max_entries], which still
         caps covert bursts, and [batch_size], which still sizes them. *)
  datapath_config : Datapath.config;
  tss_config : Tss.config option;
  metrics : Pi_telemetry.Metrics.t option;
  provenance : bool;
      (* stamp megaflows/masks with their origin and account per-port /
         per-tenant attribution; the report then carries {!report.attribution} *)
  on_sample : (Dataplane.t -> sample -> unit) option;
      (* called once per tick, after housekeeping, with the live
         dataplane and the tick's sample — the [ovsdos monitor] hook *)
}

let default_params =
  { seed = 0x0BEEFL;
    duration = 150.;
    tick = 1.;
    victim_offered_gbps = 1.0;
    victim_pkt_len = 1500;
    victim_flows = 6000;
    victim_churn = 0.05;
    victim_samples_per_tick = 500;
    victim_allowed_net = Ipv4_addr.Prefix.of_string "10.0.0.0/8";
    background_services = 8;
    attack = Some default_attack;
    n_shards = 1;
    batch_size = 32;
    batch_cycles = 0.;
    pipeline = false;
    backend = None;
    datapath_config =
      (* The kernel datapath effectively caches every flow in its
         per-hash cache; insert on every miss. *)
      { Datapath.default_config with Datapath.emc_insert_inv_prob = 1 };
    tss_config = None;
    metrics = None;
    provenance = false;
    on_sample = None }

type report = {
  samples : sample list;
  pre_attack_mean_gbps : float;
  post_attack_mean_gbps : float;
  peak_masks : int;
  peak_shard_masks : int array;
  perf : Pi_telemetry.Perf.t option;
  final_stats : Dataplane.stats;
  attribution : Provenance.summary option;
}

(* The victim's TCP round-trip time and segment size, and the
   revalidator's period. *)
let rtt = 1e-3
let mss = 1460
let revalidate_period = 1.

(* Mathis et al. TCP response: rate ≈ (MSS/RTT) * 1.22/sqrt(p). *)
let mathis_gbps ~loss =
  if loss <= 0. then infinity
  else float_of_int (mss * 8) /. rtt *. 1.22 /. sqrt loss /. 1e9

type attack_state = {
  cfgd : attack;
  flows : Flow.t array;
  entries : Megaflow.entry option array;
      (* per covert flow: its megaflow entry, filled as flows are first
         processed; used to pace keep-alive touches at the real rate *)
  rate_pps : float;
  mutable cursor : int;
  mutable injected : bool;
  mutable first_round_done : bool;
}

let flow_of_spec ~in_port (f : Traffic.flow_spec) =
  Flow.make ~in_port ~ip_src:f.Traffic.src ~ip_dst:f.Traffic.dst
    ~ip_proto:f.Traffic.proto ~tp_src:f.Traffic.src_port
    ~tp_dst:f.Traffic.dst_port ()

let run p =
  if p.n_shards < 1 then invalid_arg "Scenario.run: n_shards";
  let rng = Prng.create p.seed in
  let victim_ip = Ipv4_addr.of_string "10.1.0.2" in
  let attacker_ip = Ipv4_addr.of_string "10.1.0.3" in
  let backend =
    match p.backend with
    | Some b -> b
    | None ->
      Dataplane.pmd
        ~config:
          { Pmd.default_config with
            Pmd.n_shards = p.n_shards;
            batch_size = p.batch_size;
            (* The covert round sends many small bursts: spawning a
               domain per shard per burst would cost more than the
               burst. Results are identical either way. *)
            parallel = false;
            batch_cycles = p.batch_cycles;
            mode = (if p.pipeline then Pmd.Pipeline else Pmd.Deterministic);
            dp = p.datapath_config }
        ?tss_config:p.tss_config ()
  in
  let telemetry =
    Option.map (fun metrics -> Pi_telemetry.Ctx.v ~metrics ()) p.metrics
  in
  let prov_reg = if p.provenance then Some (Provenance.registry ()) else None in
  let dp =
    Dataplane.create ?telemetry ?provenance:prov_reg backend (Prng.split rng)
  in
  (* A pipeline backend owns spawned domains; always release them, even
     when a tick raises. *)
  Fun.protect ~finally:(fun () -> Dataplane.close dp) @@ fun () ->
  let n_sh = Dataplane.n_shards dp in
  (* Port numbering (dense from the uplink, as [Pi_cms.Cloud] assigns):
     uplink=1, victim-pod=2, attacker-pod=3, svc-i=4+i. Tenants are
     identified by their pod port. *)
  let uplink_port = 1 and victim_port = 2 and attacker_port = 3 in
  let bind_tenant tenant rules =
    (match prov_reg with
     | Some reg ->
       Provenance.bind reg ~tenant ~acl_rule:Pi_cms.Compile.acl_rule_index rules
     | None -> ());
    rules
  in
  (* Victim's own (benign) ingress whitelist. *)
  let victim_acl =
    Pi_cms.Acl.whitelist [ Pi_cms.Acl.entry ~src:p.victim_allowed_net () ]
  in
  Dataplane.install_rules dp
    (bind_tenant victim_port
       (Pi_cms.Compile.compile
          ~dst:(Ipv4_addr.Prefix.make victim_ip 32)
          ~allow:(Action.Output victim_port) victim_acl));
  (* Background services on the same host: their policies and occasional
     traffic populate the cache with the usual handful of megaflows. *)
  let background_flows =
    List.init p.background_services (fun i ->
        let svc_ip = Ipv4_addr.add (Ipv4_addr.of_string "10.1.1.0") (i + 1) in
        let port = 4 + i in
        let svc_port = 8000 + i in
        Dataplane.install_rules dp
          (bind_tenant port
             (Pi_cms.Compile.compile
                ~dst:(Ipv4_addr.Prefix.make svc_ip 32)
                ~allow:(Action.Output port)
                (Pi_cms.Acl.whitelist
                   [ Pi_cms.Acl.entry ~src:p.victim_allowed_net
                       ~proto:Pi_cms.Acl.Tcp ~dst_port:(Pi_cms.Acl.Port svc_port) () ])));
        Flow.make ~in_port:uplink_port
          ~ip_src:(Ipv4_addr.add (Ipv4_addr.of_string "10.9.0.1") i)
          ~ip_dst:svc_ip ~ip_proto:Ipv4.proto_tcp ~tp_src:(41000 + i)
          ~tp_dst:svc_port ())
  in
  let background_pkts =
    Array.of_list (List.map (fun f -> (f, 400)) background_flows)
  in
  (* Reusable rx batches: filled (or refilled) per tick, never
     reallocated. The background set is constant, so it is filled once
     — [process_batch] only writes the result columns. *)
  let background_b =
    Batch.create ~capacity:(max 1 (Array.length background_pkts))
  in
  Batch.fill background_b background_pkts;
  (* Victim workload: client flows from the allowed net. *)
  let traffic_rng = Prng.split rng in
  let pool =
    Traffic.Flow_pool.create traffic_rng ~n_flows:p.victim_flows
      ~src_net:p.victim_allowed_net
      ~dst_net:(Ipv4_addr.Prefix.make victim_ip 32)
      ~proto:Ipv4.proto_tcp ~dst_ports:[| 5001 |] ~pkt_len:p.victim_pkt_len ()
  in
  (* One flow key per pool entry, built on first use and rebuilt only
     after [churn] replaced the entry, which it does with a new spec
     record. [unbuilt] is a fresh record, physically equal to no pool
     entry. *)
  let unbuilt = { (Traffic.Flow_pool.nth pool 0) with Traffic.pkt_len = 0 } in
  let victim_specs = Array.make (Traffic.Flow_pool.size pool) unbuilt in
  let victim_keys = Array.make (Traffic.Flow_pool.size pool) Flow.zero in
  let victim_key j =
    let spec = Traffic.Flow_pool.nth pool j in
    if victim_specs.(j) != spec then begin
      victim_specs.(j) <- spec;
      victim_keys.(j) <- flow_of_spec ~in_port:uplink_port spec
    end;
    victim_keys.(j)
  in
  let offered_pps =
    Traffic.rate_for_bandwidth
      ~bits_per_sec:(p.victim_offered_gbps *. 1e9)
      ~pkt_len:p.victim_pkt_len
  in
  (* Attack state is armed lazily at [attack.start]. *)
  let attack_state = ref None in
  let arm_attack (a : attack) now =
    let spec =
      { (Policy_injection.Policy_gen.default_spec ~variant:a.variant
           ~allow_src:a.trusted_src ())
        with
        Policy_injection.Policy_gen.allow_sport = a.allow_sport;
        allow_dport = a.allow_dport;
        proto = a.proto }
    in
    let acl = Policy_injection.Policy_gen.acl spec in
    Dataplane.install_rules dp
      (bind_tenant attacker_port
         (Pi_cms.Compile.compile
            ~dst:(Ipv4_addr.Prefix.make attacker_ip 32)
            ~allow:(Action.Output attacker_port) acl));
    ignore (Dataplane.revalidate dp ~now);  (* policy change flushes caches *)
    let gen =
      Policy_injection.Packet_gen.make ~pkt_len:a.covert_pkt_len ~spec
        ~dst:attacker_ip ()
    in
    let flows =
      Policy_injection.Packet_gen.flows ~seed:(Prng.int64 rng) gen
      |> List.map (fun f ->
             Flow.with_field f Field.In_port uplink_port)
      |> Array.of_list
    in
    let rate_pps = float_of_int (Array.length flows) /. a.refresh_period in
    attack_state :=
      Some
        { cfgd = a; flows;
          entries = Array.make (Array.length flows) None;
          rate_pps; cursor = 0; injected = true;
          first_round_done = false }
  in
  let attack_active now =
    match (p.attack, !attack_state) with
    | Some a, _ when now < a.start -> None
    | Some a, None ->
      if now >= a.start then begin
        arm_attack a now;
        !attack_state
      end
      else None
    | Some a, (Some _ as st) -> begin
      match a.stop with
      | Some stop when now >= stop -> None
      | Some _ | None -> st
    end
    | None, _ -> None
  in
  (* Each shard models one PMD thread pinned to one core: per-shard
     capacity is a full core's cycles per tick. *)
  let capacity_per_tick = p.datapath_config.Datapath.cost.Cost_model.cpu_hz *. p.tick in
  let samples = ref [] in
  let victim_b = Batch.create ~capacity:(max 1 p.victim_samples_per_tick) in
  (* Covert packets simulated exactly go out in rx bursts of
     [batch_size]; [covert_j] holds each slot's covert flow index. *)
  let covert_b = Batch.create ~capacity:(max 1 p.batch_size) in
  let covert_j = Array.make (Batch.capacity covert_b) 0 in
  let max_entries =
    p.datapath_config.Datapath.megaflow.Megaflow.max_entries
  in
  let flush_covert st ~now =
    if Batch.length covert_b > 0 then begin
      Dataplane.process_batch dp covert_b ~now;
      for m = 0 to Batch.length covert_b - 1 do
        st.entries.(covert_j.(m)) <- covert_b.Batch.mf.(m)
      done;
      Batch.clear covert_b
    end
  in
  (* Per-tick buffers, reset where a tick does not overwrite them. *)
  let attacker_shard_cycles = Array.make n_sh 0. in
  let exact_sh = Array.make n_sh 0 in
  let extrap_sh = Array.make n_sh 0 in
  let victim_share = Array.make n_sh 0 in
  let shard_contrib = Array.make n_sh 1. in
  let n_ticks = int_of_float (ceil (p.duration /. p.tick)) in
  let next_revalidate = ref revalidate_period in
  for i = 0 to n_ticks - 1 do
    (* Boxed once per tick: a float bound from arithmetic is kept
       unboxed and boxed afresh at every boxed use, and the keep-alive
       loop below stores [now] into an entry once per touch. *)
    let now = Sys.opaque_identity (float_of_int i *. p.tick) in
    (* --- attacker --- *)
    Array.fill attacker_shard_cycles 0 n_sh 0.;
    let attacker_cycles =
      match attack_active now with
      | None -> 0.
      | Some st ->
        let a = st.cfgd in
        let n_flows = Array.length st.flows in
        let due =
          if not st.first_round_done then begin
            (* First refresh round: install every megaflow exactly. *)
            st.first_round_done <- true;
            n_flows
          end
          else int_of_float (st.rate_pps *. p.tick)
        in
        (* Walk the paced stream: per covert packet due this tick,
           either simulate it exactly (within the per-tick budget, or
           when its megaflow no longer exists — a real re-install) or
           refresh its entry's last-used stamp, extrapolating the cost
           from the exactly-simulated sample. Pacing through the cursor
           means a refresh period longer than the idle timeout really
           lets megaflows expire between rounds.

           Exact packets are sent in bursts, and each flow's entry is
           read from the burst's [mf] column. A pending packet can
           change a later flow's [touchable] only by an LRU eviction at
           the flow limit, so a burst holds at most as many packets as
           the cache has free entries, and one at the limit. A burst
           never spans a wrap of the cursor, so it never holds a flow
           twice, and a flow's earlier packet is flushed before its
           next decision. *)
        let exact_budget =
          ref (if due = n_flows then n_flows else a.attacker_exact_per_tick)
        in
        let exact_count = ref 0 in
        let extrapolated = ref 0 in
        Array.fill exact_sh 0 n_sh 0;
        Array.fill extrap_sh 0 n_sh 0;
        let burst_cap = ref 1 in
        let c0 = Dataplane.cycles_used dp in
        let c0_sh = Dataplane.shard_cycles dp in
        for _ = 1 to due do
          let j = st.cursor in
          if j = 0 then flush_covert st ~now;
          st.cursor <- (st.cursor + 1) mod n_flows;
          let s = Dataplane.shard_of dp st.flows.(j) in
          let touchable =
            match st.entries.(j) with
            | Some e -> e.Megaflow.alive
            | None -> false
          in
          if touchable && !exact_budget <= 0 then begin
            (match st.entries.(j) with
             | Some e -> e.Megaflow.last_used <- now
             | None -> ());
            incr extrapolated;
            extrap_sh.(s) <- extrap_sh.(s) + 1
          end
          else begin
            decr exact_budget;
            incr exact_count;
            exact_sh.(s) <- exact_sh.(s) + 1;
            if Batch.length covert_b = 0 then
              burst_cap :=
                max 1
                  (min (Batch.capacity covert_b)
                     (max_entries - (Dataplane.stats dp).Dataplane.megaflows));
            covert_j.(Batch.length covert_b) <- j;
            Batch.push covert_b st.flows.(j) ~pkt_len:a.covert_pkt_len;
            if Batch.length covert_b >= !burst_cap then flush_covert st ~now
          end
        done;
        flush_covert st ~now;
        let spent = Dataplane.cycles_used dp -. c0 in
        let per_pkt = spent /. float_of_int (max 1 !exact_count) in
        let spent_sh = Dataplane.shard_cycles dp in
        for s = 0 to n_sh - 1 do
          let spent_s = spent_sh.(s) -. c0_sh.(s) in
          (* A shard with only extrapolated packets this tick borrows the
             global per-packet sample. *)
          let per_pkt_s =
            if exact_sh.(s) > 0 then spent_s /. float_of_int exact_sh.(s)
            else per_pkt
          in
          attacker_shard_cycles.(s) <-
            spent_s +. (per_pkt_s *. float_of_int extrap_sh.(s))
        done;
        (* Thrash the EMC at the covert stream's real insertion rate,
           not just the sampled one. *)
        let virtual_inserts =
          !extrapolated / p.datapath_config.Datapath.emc_insert_inv_prob
        in
        for _ = 1 to virtual_inserts do
          let j = Prng.int rng n_flows in
          match st.entries.(j) with
          | Some e when e.Megaflow.alive ->
            Dataplane.emc_insert_forced dp st.flows.(j) e
          | Some _ | None -> ()
        done;
        spent +. (per_pkt *. float_of_int !extrapolated)
    in
    (* --- background services --- *)
    if Array.length background_pkts > 0 then
      Dataplane.process_batch dp background_b ~now;
    (* --- victim --- *)
    ignore (Traffic.Flow_pool.churn pool traffic_rng ~fraction:(p.victim_churn *. p.tick));
    let st0 = Dataplane.stats dp in
    let emc_h0 = st0.Dataplane.emc_hits and emc_m0 = st0.Dataplane.emc_misses in
    let c0 = Dataplane.cycles_used dp in
    let c0_sh = Dataplane.shard_cycles dp in
    Array.fill victim_share 0 n_sh 0;
    Batch.clear victim_b;
    for _ = 1 to p.victim_samples_per_tick do
      let f = victim_key (Traffic.Flow_pool.sample_index pool traffic_rng) in
      let s = Dataplane.shard_of dp f in
      victim_share.(s) <- victim_share.(s) + 1;
      Batch.push victim_b f ~pkt_len:p.victim_pkt_len
    done;
    Dataplane.process_batch dp victim_b ~now;
    let victim_cpp =
      (Dataplane.cycles_used dp -. c0) /. float_of_int p.victim_samples_per_tick
    in
    let victim_sh = Dataplane.shard_cycles dp in
    let st1 = Dataplane.stats dp in
    let emc_dh = st1.Dataplane.emc_hits - emc_h0
    and emc_dm = st1.Dataplane.emc_misses - emc_m0 in
    let emc_hit_rate =
      if emc_dh + emc_dm = 0 then 0.
      else float_of_int emc_dh /. float_of_int (emc_dh + emc_dm)
    in
    (* --- CPU budget sharing and TCP response: both branches write
       every [shard_contrib] slot --- *)
    let frac, loss =
      if n_sh = 1 then begin
        (* Single PMD: the exact formulas of the unsharded model. *)
        let victim_demand = offered_pps *. p.tick *. victim_cpp in
        let demand = attacker_cycles +. victim_demand in
        let frac =
          if demand <= capacity_per_tick then 1. else capacity_per_tick /. demand
        in
        shard_contrib.(0) <- frac;
        (frac, 1. -. frac)
      end
      else begin
        (* Per-PMD contention: each shard has its own core; the victim's
           effective survival is its per-shard survival weighted by the
           share of victim traffic steered to that shard. Each sampled
           victim packet stands for [offered_pps*tick/samples] real
           ones, so a shard's victim demand is its measured sample
           cycles times that scale factor. *)
        let pkts_per_sample =
          offered_pps *. p.tick /. float_of_int p.victim_samples_per_tick
        in
        let frac = ref 0. in
        for s = 0 to n_sh - 1 do
          let victim_demand_s = (victim_sh.(s) -. c0_sh.(s)) *. pkts_per_sample in
          let demand_s = attacker_shard_cycles.(s) +. victim_demand_s in
          let frac_s =
            if demand_s <= capacity_per_tick then 1.
            else capacity_per_tick /. demand_s
          in
          let share_s =
            float_of_int victim_share.(s)
            /. float_of_int p.victim_samples_per_tick
          in
          shard_contrib.(s) <- share_s *. frac_s;
          frac := !frac +. (share_s *. frac_s)
        done;
        (!frac, 1. -. !frac)
      end
    in
    let victim_gbps =
      if loss < 1e-6 then p.victim_offered_gbps
      else
        Float.min
          (p.victim_offered_gbps *. frac)
          (mathis_gbps ~loss)
    in
    (* Decompose the victim's goodput over the shards carrying it:
       shard s survives frac_s of its victim share, so its slice of the
       (Mathis-capped) goodput is proportional to share_s * frac_s. *)
    let shard_gbps =
      if frac <= 0. then Array.make n_sh 0.
      else Array.map (fun c -> victim_gbps *. c /. frac) shard_contrib
    in
    (* --- housekeeping --- *)
    ignore (Dataplane.service_upcalls dp ~now);
    if now +. p.tick >= !next_revalidate then begin
      ignore (Dataplane.revalidate dp ~now);
      next_revalidate := !next_revalidate +. revalidate_period
    end;
    let st = Dataplane.stats dp in
    let sample =
      { time = now;
        victim_gbps;
        offered_gbps = p.victim_offered_gbps;
        n_masks = st.Dataplane.masks;
        n_megaflows = st.Dataplane.megaflows;
        emc_occupancy = st.Dataplane.emc_occupancy;
        shard_masks = Dataplane.shard_masks dp;
        shard_gbps;
        emc_hit_rate;
        victim_cycles_per_pkt = victim_cpp;
        attacker_cycles_per_sec = attacker_cycles /. p.tick;
        loss }
    in
    (match p.on_sample with Some f -> f dp sample | None -> ());
    samples := sample :: !samples
  done;
  let samples = List.rev !samples in
  let mean f lo hi =
    let vs =
      List.filter_map
        (fun s -> if s.time >= lo && s.time < hi then Some (f s) else None)
        samples
    in
    match vs with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs)
  in
  let pre, post =
    match p.attack with
    | None -> (mean (fun s -> s.victim_gbps) 0. p.duration, nan)
    | Some a ->
      ( mean (fun s -> s.victim_gbps) 0. a.start,
        mean (fun s -> s.victim_gbps) (a.start +. 10.)
          (match a.stop with Some s -> s | None -> p.duration) )
  in
  let peak_shard_masks = Array.make n_sh 0 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i m -> if m > peak_shard_masks.(i) then peak_shard_masks.(i) <- m)
        s.shard_masks)
    samples;
  let perf =
    match List.filter_map (Dataplane.shard_perf dp) (List.init n_sh Fun.id) with
    | [] -> None
    | v :: vs -> Some (List.fold_left Pi_telemetry.Perf.merge v vs)
  in
  { samples;
    pre_attack_mean_gbps = pre;
    post_attack_mean_gbps = post;
    peak_masks = List.fold_left (fun acc s -> max acc s.n_masks) 0 samples;
    peak_shard_masks;
    perf;
    final_stats = Dataplane.stats dp;
    attribution =
      (if p.provenance then Some (Dataplane.attribution dp) else None) }

let timeseries r =
  let column name f =
    (name, List.map (fun s -> (s.time, float_of_int (f s))) r.samples)
  in
  [ column "n_masks" (fun s -> s.n_masks);
    column "n_megaflows" (fun s -> s.n_megaflows);
    column "emc_occupancy" (fun s -> s.emc_occupancy) ]
  @ List.init (Array.length r.peak_shard_masks) (fun i ->
        column (Printf.sprintf "shard%d/n_masks" i) (fun s -> s.shard_masks.(i)))

let pp_sample_header ppf () =
  Format.fprintf ppf "%8s %12s %10s %12s %10s %10s"
    "time[s]" "victim[Gbps]" "#masks" "#megaflows" "emc-hit" "loss"

let pp_sample ppf s =
  Format.fprintf ppf "%8.1f %12.4f %10d %12d %10.3f %10.3f"
    s.time s.victim_gbps s.n_masks s.n_megaflows s.emc_hit_rate s.loss
