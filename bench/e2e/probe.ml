(* Timed calls into a 1-shard [Pmd], plus the traced run's shadow probes.

   Every packet the benchmark sends goes through [batch] or [single],
   which time the real dataplane call and count its packets. With a span
   recorder, [batch] first runs the *pure* entry points of each layer on
   the live state (RSS steering, the EMC probe, the megaflow walk over
   the EMC misses, the slow-path classification of the walk misses),
   each in its own span under a root [bench.batch] span, and then the
   real [Pmd.process_batch]. None of the shadow calls changes what the
   dataplane does next: the fig3-scenario golden check in the traced run
   proves it. *)

open Pi_ovs

type t = {
  spans : Spans.t option;
  mutable cap : int;
  mutable emc_out : Megaflow.entry option array;
  mutable miss : int array;
  mutable mf_entry : Megaflow.entry option array;
  mutable mf_probes : int array;
  mutable mf_tbl : int array;
  mutable up_idx : int array;
  mutable verdicts : Slowpath.verdict array;
  (* totals over the calls made through this probe *)
  mutable real_ns : int;  (* inside the real process / process_batch calls *)
  mutable packets : int;
  mutable walked : int;  (* packets the shadow walk examined *)
  mutable probes : int;  (* subtable probes of the shadow walk *)
  mutable upcalled : int;  (* packets the shadow slow path classified *)
  mutable sweeps : int;
  mutable sweep_ns : int;
  mutable evicted : int;
}

let create ?spans () =
  { spans; cap = 0; emc_out = [||]; miss = [||]; mf_entry = [||];
    mf_probes = [||]; mf_tbl = [||]; up_idx = [||]; verdicts = [||];
    real_ns = 0; packets = 0; walked = 0; probes = 0; upcalled = 0;
    sweeps = 0; sweep_ns = 0; evicted = 0 }

let ensure p n =
  if n > p.cap then begin
    p.cap <- n;
    p.emc_out <- Array.make n None;
    p.miss <- Array.make n 0;
    p.mf_entry <- Array.make n None;
    p.mf_probes <- Array.make n 0;
    p.mf_tbl <- Array.make n 0;
    p.up_idx <- Array.make n 0;
    p.verdicts <- Array.make n Slowpath.no_verdict
  end

let rec steer_all pmd (b : Batch.t) i acc =
  if i >= b.Batch.n then acc
  else steer_all pmd b (i + 1) (acc + Pmd.shard_of pmd b.Batch.flows.(i))

let shadow p sp pmd (b : Batch.t) =
  let n = b.Batch.n in
  ensure p n;
  let dp = Pmd.shard pmd 0 in
  Spans.enter sp Spans.steer;
  if steer_all pmd b 0 0 <> 0 then invalid_arg "Probe: one shard only";
  Spans.leave sp;
  Spans.enter sp Spans.emc;
  let k =
    Emc.lookup_batch (Datapath.emc dp) b.Batch.flows ~n ~out:p.emc_out
      ~miss_idx:p.miss
  in
  Spans.leave sp;
  Spans.enter sp Spans.walk;
  Megaflow.walk_batch (Datapath.megaflow dp) b.Batch.flows ~idx:p.miss ~n:k
    ~out_entry:p.mf_entry ~out_probes:p.mf_probes ~out_tbl:p.mf_tbl;
  Spans.leave sp;
  let m = ref 0 in
  for j = 0 to k - 1 do
    p.probes <- p.probes + p.mf_probes.(j);
    if Option.is_none p.mf_entry.(j) then begin
      p.up_idx.(!m) <- p.miss.(j);
      incr m
    end
  done;
  p.walked <- p.walked + k;
  p.upcalled <- p.upcalled + !m;
  Spans.enter sp Spans.upcall;
  Slowpath.upcall_batch (Datapath.slowpath dp) b.Batch.flows ~idx:p.up_idx
    ~n:!m ~out:p.verdicts;
  Spans.leave sp

(* Process one burst; returns the ns spent inside [Pmd.process_batch]. *)
let batch p pmd (b : Batch.t) ~now =
  (match p.spans with
   | Some sp ->
     Spans.enter sp Spans.batch;
     shadow p sp pmd b;
     Spans.enter sp Spans.process_batch
   | None -> ());
  let t0 = Meter.now_ns () in
  Pmd.process_batch pmd b ~now;
  let dt = Meter.now_ns () - t0 in
  (match p.spans with
   | Some sp ->
     Spans.leave sp;
     Spans.leave sp
   | None -> ());
  p.real_ns <- p.real_ns + dt;
  p.packets <- p.packets + b.Batch.n;
  dt

let timed p name f =
  (match p.spans with Some sp -> Spans.enter sp name | None -> ());
  let t0 = Meter.now_ns () in
  let r = f () in
  let dt = Meter.now_ns () - t0 in
  (match p.spans with Some sp -> Spans.leave sp | None -> ());
  (r, dt)

let single p pmd ~now flow ~pkt_len =
  let r, dt = timed p Spans.process (fun () -> Pmd.process pmd ~now flow ~pkt_len) in
  p.real_ns <- p.real_ns + dt;
  p.packets <- p.packets + 1;
  r

let revalidate p pmd ~now =
  let n, dt = timed p Spans.revalidate (fun () -> Pmd.revalidate pmd ~now) in
  p.sweeps <- p.sweeps + 1;
  p.sweep_ns <- p.sweep_ns + dt;
  p.evicted <- p.evicted + n;
  n

let service_upcalls p pmd ~now =
  fst (timed p Spans.service_upcalls (fun () -> Pmd.service_upcalls pmd ~now))

(* The dataplane [Pi_sim.Scenario.run] builds when [params.backend] is
   [None] ([Pi_ovs.Dataplane.pmd] over the same config), with the four
   calls the scenario makes per tick routed through the probe [p]. *)
let backend p ?tss_config (config : Pmd.config) : Dataplane.backend =
  (module struct
    type t = Pmd.t

    let name = "pmd"

    let create ?telemetry ?provenance rng () =
      Pmd.create ~config ?tss_config ?telemetry ?provenance rng ()

    let install_rules = Pmd.install_rules
    let remove_rules = Pmd.remove_rules
    let process d ~now flow ~pkt_len = single p d ~now flow ~pkt_len
    let process_batch d b ~now = ignore (batch p d b ~now)
    let process_burst = Pmd.process_burst
    let service_upcalls d ~now = service_upcalls p d ~now
    let revalidate d ~now = revalidate p d ~now
    let close = Pmd.close

    let emc_sum f d =
      let n = ref 0 in
      for s = 0 to Pmd.n_shards d - 1 do
        n := !n + f (Datapath.emc (Pmd.shard d s))
      done;
      !n

    let stats d =
      { Dataplane.packets = Pmd.n_processed d;
        upcalls = Pmd.n_upcalls d;
        upcall_drops = Pmd.upcall_drops d;
        pending_upcalls = Pmd.pending_upcalls d;
        masks = Pmd.n_masks d;
        megaflows = Pmd.n_megaflows d;
        cycles = Pmd.cycles_used d;
        handler_cycles = Pmd.handler_cycles_used d;
        emc_hits = emc_sum Emc.hits d;
        emc_misses = emc_sum Emc.misses d;
        emc_occupancy = emc_sum Emc.occupancy d }

    let cycles_used = Pmd.cycles_used
    let telemetry = Pmd.telemetry
    let reset_stats = Pmd.reset_stats
    let n_shards = Pmd.n_shards
    let shard_of = Pmd.shard_of
    let shard_masks = Pmd.per_shard_masks
    let shard_cycles = Pmd.per_shard_cycles
    let shard_metrics = Pmd.shard_metrics
    let shard_perf = Pmd.shard_perf
    let last_megaflow d ~shard = Datapath.last_megaflow (Pmd.shard d shard)

    let emc_insert_forced d flow e =
      Emc.insert_forced (Datapath.emc (Pmd.shard_for d flow)) flow e

    let provenance = Pmd.provenance
    let shard_flows d i = Megaflow.entries (Datapath.megaflow (Pmd.shard d i))

    let shard_mask_stats d i =
      Megaflow.subtable_stats (Datapath.megaflow (Pmd.shard d i))
  end)
