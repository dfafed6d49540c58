(* A sharded datapath modelling OVS's poll-mode-driver (PMD) threads.

   Real multi-queue OVS runs one PMD thread per core; the NIC's RSS hash
   steers each flow to one queue, and every PMD owns a private EMC,
   megaflow cache and (kernel flavour) mask cache. The mask explosion
   therefore degrades *every shard that sees attack traffic* — the
   per-core measurements of the TSE follow-up study (Csikor et al.,
   arXiv:2011.09107).

   Shards are fully independent: no locks, no shared mutable state
   between shards. Two execution modes:

   - [Deterministic] (the conformance oracle): each [process_batch]
     call runs every shard's slice to completion before returning —
     sequentially, or with one freshly spawned domain per shard per
     batch when [parallel]. Because the shards never share state, the
     parallel run is bit-for-bit identical to the sequential one
     (enforced by the parity test suite).

   - [Pipeline] (run to completion, real concurrency): one persistent
     worker domain per shard, created at [create] time and fed through
     a fixed-capacity SPSC ring of packet indices; deferred upcalls
     flow over a second SPSC ring to one dedicated handler domain
     (ovs-vswitchd's handler thread) that classifies in the shard's
     slow path and ships the verdict back on a completion ring, where
     the owning worker installs it — every cache stays single-writer.
     [process_batch] keeps its barrier contract (steer, enqueue, wait
     for the shards to drain), so results are positionally identical
     to deterministic mode; only wall-clock differs. This is the mode
     `bench wallclock` measures. *)

type mode = Deterministic | Pipeline

type config = {
  n_shards : int;
  batch_size : int;
      (* rx burst size; OVS's NETDEV_MAX_BURST is 32 *)
  parallel : bool;
  batch_cycles : float;
      (* fixed per-rx-batch cost (ring doorbell, prefetch setup),
         amortised over the packets of the batch *)
  mode : mode;
  rx_ring : int;
      (* per-shard rx ring capacity (pipeline mode); clamped so one
         burst plus its header always fits *)
  upcall_ring : int;
      (* per-shard worker→handler (and handler→worker completion) ring
         capacity (pipeline mode) *)
  dp : Datapath.config;
}

let default_config =
  { n_shards = 1;
    batch_size = 32;
    parallel = true;
    batch_cycles = 0.;
    mode = Deterministic;
    rx_ring = 1024;
    upcall_ring = 256;
    dp = Datapath.default_config }

type shard = {
  dp : Datapath.t;
  metrics : Pi_telemetry.Metrics.t option;
  b : Batch.t;
      (* private rx-burst scratch (capacity [batch_size]): each burst of
         the shard's slice is gathered here, run through
         [Datapath.process_batch], and scattered back *)
  mutable n_batches : int;
  oc : float array;
      (* overhead cycles, as a 1-slot float array: a [mutable float]
         field in this mixed record would box a fresh float on every
         burst charge *)
}

(* worker → handler: one deferred upcall, carried off the shard's
   {!Upcall_queue} (depth bound and drop accounting already applied at
   enqueue time by [Datapath.process_batch]). *)
type upcall_msg = {
  um_shard : int;
  um_flow : Pi_classifier.Flow.t;
  um_pkt_len : int;
  um_at : float;
}

(* handler → worker: the slow-path verdict, for the shard owner to
   apply to its own caches ([Datapath.apply_verdict]). *)
type completion = {
  cm_flow : Pi_classifier.Flow.t;
  cm_pkt_len : int;
  cm_at : float;
  cm_verdict : Slowpath.verdict;
}

(* Per-shard pipeline plumbing. Ownership: [w_rx] producer is the main
   domain, consumer the worker; [w_ucr] producer the worker, consumer
   the handler; [w_cmp] producer the handler, consumer the worker.
   [w_submitted] and [w_forwarded]/[w_applied_local] are plain fields
   owned by their single writer; cross-domain visibility goes through
   the atomics ([w_done], [w_applied], [w_quiet]) and the rings. *)
type worker = {
  w_rx : int Spsc_ring.t;
  w_idx : int array;
      (* burst index scratch (capacity [batch_size]), worker-private:
         the parent-batch positions of the burst being gathered *)
  w_ucr : upcall_msg option Spsc_ring.t;
  w_cmp : completion option Spsc_ring.t;
  w_done : int Atomic.t;        (* packets fully processed (worker) *)
  w_applied : int Atomic.t;     (* verdicts installed (worker) *)
  w_quiet : bool Atomic.t;
      (* worker is idle with no queued, in-flight or unapplied upcall
         work; set by the worker, the main domain's quiesce signal *)
  mutable w_submitted : int;    (* packets enqueued (main domain) *)
  mutable w_forwarded : int;    (* upcalls moved uq → w_ucr (worker) *)
  mutable w_domain : unit Domain.t option;
}

type pipeline = {
  workers : worker array;
  stop : bool Atomic.t;
  mutable handler : unit Domain.t option;
  (* The in-flight batch, published to the workers by the ring pushes
     (plain writes ordered before the SC tail update; the worker's pop
     reads the tail first). Only valid between submit and barrier —
     [process_batch] never returns with it still being read. Workers
     write result columns at disjoint parent-batch indices (each index
     is enqueued to exactly one shard), so the writes never race. *)
  mutable cur_b : Batch.t;
  mutable cur_now : float;
  mutable last_applied : int;   (* for service_upcalls deltas *)
  mutable closed : bool;
}

type t = {
  cfg : config;
  shards : shard array;
  ctx : Pi_telemetry.Ctx.t;
  pl : pipeline option;
  (* Steering scratch: per-shard index arrays + fill counts, grown
     geometrically and reused across batches so steering allocates
     nothing in the steady state. *)
  mutable sc_idx : int array array;
  sc_len : int array;
  mutable cb : Batch.t;
      (* reusable compat batch backing the legacy tuple-array
         [process_burst] surface and the pipeline's single-packet
         [process]; grown geometrically *)
}

(* Progressive backoff for every spin-wait: brief [cpu_relax] bursts,
   then escalating short sleeps so a waiting domain yields its core —
   this must stay live even when domains outnumber cores. *)
let pause spins =
  if spins < 128 then Domain.cpu_relax ()
  else Unix.sleepf (Float.min 0.0005 (1e-6 *. float_of_int (spins - 127)))

let deferred_upcalls (cfg : config) =
  not (Upcall_queue.synchronous cfg.dp.Datapath.upcall_queue)

(* ---------- worker & handler loops (pipeline mode) ---------- *)

(* [min_int] never appears on an rx ring (headers are [k] or [-k] with
   1 <= k, indices are >= 0), so it doubles as the empty default. *)
let no_msg = min_int

(* Apply every completion the handler has shipped back: install the
   verdict into this shard's caches and publish the progress. *)
let apply_completions sh w =
  let continue = ref true in
  while !continue do
    match Spsc_ring.pop_or w.w_cmp ~default:None with
    | None -> continue := false
    | Some c ->
      Datapath.apply_verdict sh.dp ~now:c.cm_at c.cm_flow
        ~pkt_len:c.cm_pkt_len c.cm_verdict;
      Atomic.incr w.w_applied
  done

(* Move deferred upcalls from the shard's bounded queue onto the
   handler ring. [is_full] is checked {e before} popping — a SPSC
   producer seeing space keeps it, so no item is ever popped and then
   stranded with nowhere to go. *)
let forward_upcalls s sh w =
  let continue = ref true in
  while !continue do
    if Spsc_ring.is_full w.w_ucr then continue := false
    else
      match Datapath.pop_pending_upcall sh.dp with
      | None -> continue := false
      | Some (um_flow, um_pkt_len, um_at) ->
        ignore
          (Spsc_ring.push w.w_ucr
             (Some { um_shard = s; um_flow; um_pkt_len; um_at }));
        w.w_forwarded <- w.w_forwarded + 1
  done

let worker_body t pl s =
  let sh = t.shards.(s) in
  let w = pl.workers.(s) in
  let quiet = ref true in
  let idle = ref 0 in
  let running = ref true in
  while !running do
    let h = Spsc_ring.pop_or w.w_rx ~default:no_msg in
    if h <> no_msg then begin
      if !quiet then begin
        Atomic.set w.w_quiet false;
        quiet := false
      end;
      idle := 0;
      let k = abs h in
      if h > 0 then begin
        (* a charged rx burst: the fixed per-burst cost, exactly as the
           deterministic mode's chopping charges it *)
        sh.n_batches <- sh.n_batches + 1;
        sh.oc.(0) <- sh.oc.(0) +. t.cfg.batch_cycles
      end;
      let b = pl.cur_b in
      let now = pl.cur_now in
      for j = 0 to k - 1 do
        (* the producer pushes header-then-indices, so a just-popped
           header may race ahead of its last indices — spin them in *)
        let i = ref (Spsc_ring.pop_or w.w_rx ~default:no_msg) in
        let spins = ref 0 in
        while !i = no_msg do
          pause !spins;
          incr spins;
          i := Spsc_ring.pop_or w.w_rx ~default:no_msg
        done;
        w.w_idx.(j) <- !i
      done;
      (* gather the burst into the shard's private batch, run the
         vectorised walk, scatter the results back to the parent *)
      let sb = sh.b in
      for j = 0 to k - 1 do
        let i = w.w_idx.(j) in
        sb.Batch.flows.(j) <- b.Batch.flows.(i);
        sb.Batch.pkt_lens.(j) <- b.Batch.pkt_lens.(i)
      done;
      sb.Batch.n <- k;
      Datapath.process_batch sh.dp sb ~now;
      for j = 0 to k - 1 do
        Batch.blit_result sb j b w.w_idx.(j)
      done;
      forward_upcalls s sh w;
      ignore (Atomic.fetch_and_add w.w_done k)
    end
    else begin
      apply_completions sh w;
      forward_upcalls s sh w;
      let q =
        Datapath.pending_upcalls sh.dp = 0
        && w.w_forwarded = Atomic.get w.w_applied
      in
      if q <> !quiet then begin
        Atomic.set w.w_quiet q;
        quiet := q
      end;
      if q && Atomic.get pl.stop && Spsc_ring.is_empty w.w_rx then
        running := false
      else begin
        pause !idle;
        incr idle
      end
    end
  done

(* The dedicated handler domain: round-robin the shard upcall rings,
   classify in the owning shard's slow path (this domain is the slow
   paths' only user while the pipeline runs — the shared scratch in
   {!Slowpath.t} stays single-writer), ship the verdict back. *)
let handler_body t pl =
  let idle = ref 0 in
  let running = ref true in
  while !running do
    let did = ref false in
    Array.iter
      (fun w ->
        match Spsc_ring.pop_or w.w_ucr ~default:None with
        | None -> ()
        | Some m ->
          did := true;
          let sh = t.shards.(m.um_shard) in
          let v = Slowpath.upcall (Datapath.slowpath sh.dp) m.um_flow in
          let c =
            Some
              { cm_flow = m.um_flow; cm_pkt_len = m.um_pkt_len;
                cm_at = m.um_at; cm_verdict = v }
          in
          let spins = ref 0 in
          while not (Spsc_ring.push w.w_cmp c) do
            pause !spins;
            incr spins
          done)
      pl.workers;
    if !did then idle := 0
    else if Atomic.get pl.stop then running := false
    else begin
      pause !idle;
      incr idle
    end
  done

(* ---------- construction ---------- *)

let create ?(config = default_config) ?tss_config ?telemetry ?provenance rng
    () =
  if config.n_shards < 1 then invalid_arg "Pmd.create: n_shards";
  if config.batch_size < 1 then invalid_arg "Pmd.create: batch_size";
  let ctx = Option.value telemetry ~default:Pi_telemetry.Ctx.empty in
  let metrics = Pi_telemetry.Ctx.metrics ctx in
  let mk_shard i =
    (* A single shard IS the seed datapath: same PRNG stream, same
       (shared) telemetry registry, same tracer — the 1-shard Pmd is
       bit-for-bit the unsharded Datapath. With several shards each gets
       an independent substream, a private registry and a private
       provenance store (built by its datapath from the shared rule
       registry), so domains never touch shared mutable instruments.
       Identical in both modes, so a pipeline shard's caches evolve
       bit-for-bit as the deterministic oracle's do. *)
    if config.n_shards = 1 then
      { dp =
          Datapath.create ~config:config.dp ?tss_config ~telemetry:ctx
            ?provenance rng ();
        metrics;
        b = Batch.create ~capacity:config.batch_size;
        n_batches = 0;
        oc = Array.make 1 0. }
    else begin
      ignore i;
      let metrics = Option.map (fun _ -> Pi_telemetry.Metrics.create ()) metrics in
      { dp = Datapath.create ~config:config.dp ?tss_config
               ~telemetry:(Pi_telemetry.Ctx.v ?metrics ())
               ?provenance
               (Pi_pkt.Prng.split rng) ();
        metrics;
        b = Batch.create ~capacity:config.batch_size;
        n_batches = 0;
        oc = Array.make 1 0. }
    end
  in
  let shards = Array.init config.n_shards mk_shard in
  let pl =
    match config.mode with
    | Deterministic -> None
    | Pipeline ->
      let rx_cap = max config.rx_ring (2 * (config.batch_size + 1)) in
      let uc_cap = max config.upcall_ring 1 in
      let mk_worker _ =
        { w_rx = Spsc_ring.create ~capacity:rx_cap ~dummy:no_msg;
          w_idx = Array.make config.batch_size 0;
          w_ucr = Spsc_ring.create ~capacity:uc_cap ~dummy:None;
          w_cmp = Spsc_ring.create ~capacity:uc_cap ~dummy:None;
          w_done = Atomic.make 0;
          w_applied = Atomic.make 0;
          w_quiet = Atomic.make true;
          w_submitted = 0;
          w_forwarded = 0;
          w_domain = None }
      in
      Some
        { workers = Array.init config.n_shards mk_worker;
          stop = Atomic.make false;
          handler = None;
          cur_b = Batch.create ~capacity:1;
          cur_now = 0.;
          last_applied = 0;
          closed = false }
  in
  let t =
    { cfg = config; shards; ctx; pl;
      sc_idx = Array.init config.n_shards (fun _ -> [||]);
      sc_len = Array.make config.n_shards 0;
      cb = Batch.create ~capacity:config.batch_size }
  in
  (match t.pl with
   | None -> ()
   | Some pl ->
     Array.iteri
       (fun s w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_body t pl s)))
       pl.workers;
     if deferred_upcalls config then
       pl.handler <- Some (Domain.spawn (fun () -> handler_body t pl)));
  t

let config t = t.cfg
let n_shards t = Array.length t.shards
let shard t i = t.shards.(i).dp
let shard_metrics t i = t.shards.(i).metrics

let provenance t =
  Array.fold_right
    (fun s acc ->
      match Datapath.provenance s.dp with Some p -> p :: acc | None -> acc)
    t.shards []

(* RSS-style steering. [Flow.hash]'s low bits already index the EMC and
   the mask cache, so using them for shard choice too would strip
   entropy from every shard's caches (all flows of shard s would share
   their low hash bits). Remix through an xorshift-multiply first, as a
   NIC's Toeplitz hash is likewise independent of the software hash. *)
let remix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h land max_int in
  h lxor (h lsr 29)

let shard_of t flow =
  if Array.length t.shards = 1 then 0
  else remix (Pi_classifier.Flow.hash flow) mod Array.length t.shards

let shard_for t flow = (t.shards.(shard_of t flow)).dp

(* ---------- pipeline control (quiesce / submit / barrier) ---------- *)

let spin_until cond =
  if not (cond ()) then begin
    let spins = ref 0 in
    while not (cond ()) do
      pause !spins;
      incr spins
    done
  end

(* Wait until every worker has processed all submitted packets and has
   no queued, in-flight or unapplied upcall work. The [w_quiet] read
   also carries the happens-before: the main domain sees every cache
   write the worker made before declaring itself quiet. *)
let quiesce pl =
  Array.iter
    (fun w ->
      spin_until (fun () ->
          Atomic.get w.w_done = w.w_submitted && Atomic.get w.w_quiet))
    pl.workers

let push_spin r x =
  if not (Spsc_ring.push r x) then
    spin_until (fun () -> Spsc_ring.push r x)

let ensure_scratch t n =
  if n > 0 && Array.length t.sc_idx.(0) < n then begin
    let cap = max n (2 * Array.length t.sc_idx.(0)) in
    t.sc_idx <- Array.init (Array.length t.shards) (fun _ -> Array.make cap 0)
  end

(* Steer a batch into the per-shard scratch arrays, preserving arrival
   order within each shard. Allocation-free once the scratch is warm. *)
let steer t (b : Batch.t) n =
  ensure_scratch t n;
  Array.fill t.sc_len 0 (Array.length t.sc_len) 0;
  for i = 0 to n - 1 do
    let s = shard_of t b.Batch.flows.(i) in
    let l = t.sc_len.(s) in
    t.sc_idx.(s).(l) <- i;
    t.sc_len.(s) <- l + 1
  done

(* Enqueue a steered batch to the workers — per shard: chop into rx
   bursts of [batch_size], each pushed as a header ([k] charged, [-k]
   uncharged) followed by its [k] packet indices — then barrier until
   every worker has drained its share. The barrier makes the result
   columns safe to read and keeps [process_batch]'s contract identical
   across modes. *)
let run_pipeline t pl ~now (b : Batch.t) ~charged =
  if pl.closed then invalid_arg "Pmd: pipeline is closed";
  let n = b.Batch.n in
  steer t b n;
  pl.cur_b <- b;
  pl.cur_now <- now;
  for s = 0 to Array.length t.shards - 1 do
    let len = t.sc_len.(s) and idx = t.sc_idx.(s) in
    if len > 0 then begin
      let w = pl.workers.(s) in
      let pos = ref 0 in
      while !pos < len do
        let k = min t.cfg.batch_size (len - !pos) in
        push_spin w.w_rx (if charged then k else -k);
        for j = !pos to !pos + k - 1 do
          push_spin w.w_rx idx.(j)
        done;
        pos := !pos + k
      done;
      w.w_submitted <- w.w_submitted + len
    end
  done;
  Array.iter
    (fun w -> spin_until (fun () -> Atomic.get w.w_done = w.w_submitted))
    pl.workers

(* Run one shard's slice of the parent batch, in arrival order, chopped
   into rx bursts of [batch_size]: each burst (the last one possibly
   short) pays the fixed [batch_cycles] once, fills the shard's private
   batch from the parent's columns, runs the vectorised walk, and
   scatters the results back at this shard's private indices. Top-level
   tail recursion: a closure over the loop state would allocate per
   batch. *)
let rec det_run_chunks t (b : Batch.t) ~now s pos =
  let len = t.sc_len.(s) in
  if pos < len then begin
    let sh = t.shards.(s) in
    let k = min t.cfg.batch_size (len - pos) in
    sh.n_batches <- sh.n_batches + 1;
    sh.oc.(0) <- sh.oc.(0) +. t.cfg.batch_cycles;
    let sb = sh.b and idx = t.sc_idx.(s) in
    for j = 0 to k - 1 do
      let i = idx.(pos + j) in
      sb.Batch.flows.(j) <- b.Batch.flows.(i);
      sb.Batch.pkt_lens.(j) <- b.Batch.pkt_lens.(i)
    done;
    sb.Batch.n <- k;
    Datapath.process_batch sh.dp sb ~now;
    for j = 0 to k - 1 do
      Batch.blit_result sb j b idx.(pos + j)
    done;
    det_run_chunks t b ~now s (pos + k)
  end

(* ---------- the Dataplane surface ---------- *)

let install_rules t rules =
  Option.iter quiesce t.pl;
  Array.iter (fun s -> Datapath.install_rules s.dp rules) t.shards

let remove_rules t pred =
  Option.iter quiesce t.pl;
  (* Rules are replicated to every shard: the logical removed-count is
     the per-shard count, not the sum. *)
  Array.fold_left (fun acc s -> max acc (Datapath.remove_rules s.dp pred)) 0 t.shards

let ensure_cb t n =
  if Batch.capacity t.cb < n then
    t.cb <- Batch.create ~capacity:(max n (2 * Batch.capacity t.cb))

let process t ~now flow ~pkt_len =
  match t.pl with
  | None -> Datapath.process (shard_for t flow) ~now flow ~pkt_len
  | Some pl ->
    (* the degenerate uncharged burst: same packet, same shard, same
       PRNG stream as the deterministic path — only the executing
       domain differs *)
    Batch.clear t.cb;
    Batch.push t.cb flow ~pkt_len;
    run_pipeline t pl ~now t.cb ~charged:false;
    Batch.result t.cb 0

let process_batch t (b : Batch.t) ~now =
  let n = b.Batch.n in
  if n > 0 then
    match t.pl with
    | Some pl -> run_pipeline t pl ~now b ~charged:true
    | None ->
      let n_shards = Array.length t.shards in
      steer t b n;
      if t.cfg.parallel && n_shards > 1 then begin
        (* One domain per shard with work. Shards own disjoint state and
           disjoint parent-batch indices, so this is data-race-free;
           joining establishes the happens-before for the reads below. *)
        let domains =
          Array.to_list
            (Array.init n_shards (fun s ->
                 if t.sc_len.(s) = 0 then None
                 else
                   Some (Domain.spawn (fun () -> det_run_chunks t b ~now s 0))))
        in
        List.iter (function Some d -> Domain.join d | None -> ()) domains
      end
      else
        for s = 0 to n_shards - 1 do
          det_run_chunks t b ~now s 0
        done

let process_burst t ~now pkts =
  let n = Array.length pkts in
  if n = 0 then [||]
  else begin
    ensure_cb t n;
    Batch.fill t.cb pkts;
    process_batch t t.cb ~now;
    Array.init n (Batch.result t.cb)
  end

let revalidate t ~now =
  Option.iter quiesce t.pl;
  Array.fold_left (fun acc s -> acc + Datapath.revalidate s.dp ~now) 0 t.shards

let service_upcalls t ~now =
  match t.pl with
  | None ->
    Array.fold_left (fun acc s -> acc + Datapath.service_upcalls s.dp ~now) 0
      t.shards
  | Some pl ->
    (* Run to completion: the handler domain is always draining, so
       "servicing" means waiting for every deferred upcall to resolve
       and reporting how many landed since the last call. Handler
       budgets do not apply in pipeline mode. *)
    quiesce pl;
    let total =
      Array.fold_left (fun acc w -> acc + Atomic.get w.w_applied) 0 pl.workers
    in
    let d = total - pl.last_applied in
    pl.last_applied <- total;
    d

let close t =
  match t.pl with
  | None -> ()
  | Some pl ->
    if not pl.closed then begin
      quiesce pl;
      pl.closed <- true;
      Atomic.set pl.stop true;
      Array.iter
        (fun w ->
          Option.iter Domain.join w.w_domain;
          w.w_domain <- None)
        pl.workers;
      Option.iter Domain.join pl.handler;
      pl.handler <- None
    end

let sum_int f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let sum_float f t = Array.fold_left (fun acc s -> acc +. f s) 0. t.shards

let cycles_used t =
  sum_float (fun s -> Datapath.cycles_used s.dp +. s.oc.(0)) t

let batch_overhead_cycles t = sum_float (fun s -> s.oc.(0)) t
let handler_cycles_used t = sum_float (fun s -> Datapath.handler_cycles_used s.dp) t
let n_batches t = sum_int (fun s -> s.n_batches) t
let n_processed t = sum_int (fun s -> Datapath.n_processed s.dp) t
let n_upcalls t = sum_int (fun s -> Datapath.n_upcalls s.dp) t
let upcall_drops t = sum_int (fun s -> Datapath.upcall_drops s.dp) t
let pending_upcalls t = sum_int (fun s -> Datapath.pending_upcalls s.dp) t
let n_masks t = sum_int (fun s -> Datapath.n_masks s.dp) t
let n_megaflows t = sum_int (fun s -> Datapath.n_megaflows s.dp) t

let telemetry t = t.ctx

(* The datapath's cost model prices its stages; the per-rx-burst
   overhead is a Pmd concept, so its coefficient and count come from
   here. *)
let shard_perf t i =
  let s = t.shards.(i) in
  let c = t.cfg.dp.Datapath.cost in
  Some
    (Pi_telemetry.Perf.v ~emc_lookup:c.Cost_model.emc_lookup
       ~mf_probe:c.Cost_model.mf_probe ~mf_hit_fixed:c.Cost_model.mf_hit_fixed
       ~upcall:c.Cost_model.upcall ~slow_probe:c.Cost_model.slow_probe
       ~per_byte:c.Cost_model.per_byte ~batch:t.cfg.batch_cycles
       (fun () -> Datapath.perf_counts s.dp ~batches:s.n_batches))

let per_shard_masks t =
  Array.map (fun s -> Datapath.n_masks s.dp) t.shards

let per_shard_cycles t =
  Array.map (fun s -> Datapath.cycles_used s.dp +. s.oc.(0)) t.shards

let reset_stats t =
  Option.iter quiesce t.pl;
  Array.iter
    (fun s ->
      Datapath.reset_stats s.dp;
      s.n_batches <- 0;
      s.oc.(0) <- 0.)
    t.shards
