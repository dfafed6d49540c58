let src = Logs.Src.create "pi.datapath" ~doc:"OVS-model datapath"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  emc_enabled : bool;
  emc_capacity : int;
  emc_insert_inv_prob : int;
  megaflow : Megaflow.config;
  cost : Cost_model.t;
  mask_limit : int option;
  megaflow_transform : (Pi_classifier.Mask.t -> Pi_classifier.Mask.t) option;
  mask_cache_capacity : int option;
  rank_subtables : bool;
  upcall_queue : Upcall_queue.config;
}

let default_config =
  { emc_enabled = true;
    emc_capacity = 8192;
    emc_insert_inv_prob = 4;
    megaflow = Megaflow.default_config;
    cost = Cost_model.default;
    mask_limit = None;
    megaflow_transform = None;
    mask_cache_capacity = None;
    rank_subtables = false;
    upcall_queue = Upcall_queue.default_config }

type upcall_item = {
  ui_flow : Pi_classifier.Flow.t;
  ui_pkt_len : int;
  ui_at : float;  (* enqueue time; the pipeline handler classifies at
                     this timestamp since it has no tick clock *)
}

type t = {
  cfg : config;
  emc : Megaflow.entry Emc.t;
  mf : Megaflow.t;
  mcache : Mask_cache.t option;
  slow : Slowpath.t;
  uq : upcall_item Upcall_queue.t;
  sync_upcalls : bool;
      (* default: unbounded queue with no handler budget — misses are
         serviced inline, bit-for-bit the pre-queue datapath *)
  cy : float array;
      (* cy.(0) = fast-path cycles, cy.(1) = handler cycles. A float
         array, not two mutable float fields: in a mixed record every
         [t.cycles <- t.cycles +. c] store boxes a fresh float, which
         alone busts the batch path's zero-allocation budget; float
         array stores are unboxed. *)
  least_now : float array;
      (* least_now.(0): the least [now] passed to {!process_batch} or
         {!service_upcalls} since the last full megaflow sweep, so a
         lower bound on every hit's [last_used] stamp since then
         ([infinity] if none); one cell for the same reason as [cy] *)
  mutable swept_rev : int;
      (* the slow-path revision at the last full megaflow sweep, or at
         the last rule change that found the megaflow cache empty: no
         live entry carries an older one *)
  mutable emc_deaths : int;
      (* {!Megaflow.deaths} at the last EMC sweep *)
  mf_stats : Megaflow.lookup_stats;
      (* caller-owned probe reporting for this datapath's own megaflow
         commits *)
  one : Batch.t;
      (* {!process}'s batch of one. Its walk scratch doubles as the
         one-slot walk of a stale phase-P EMC hit, which a batch of one
         never has, so the two uses cannot collide. *)
  ck_pos : int array;
  mutable ck_n : int;
  mutable ck_next : int;
      (* The synchronous upcall chunk: slots [0, ck_n) of the slow path's
         scratch were classified for the packets at positions [ck_pos]
         (increasing) of the batch being processed; slots below [ck_next]
         are spent. Valid only within one {!process_batch}, which empties
         it first. *)
  (* Batched handler scratch for {!service_upcalls}: one chunk of popped
     items, an identity index row, and the verdicts. *)
  su_flows : Pi_classifier.Flow.t array;
  su_lens : int array;
  su_idx : int array;
  su_verd : Slowpath.verdict array;
  mutable n_processed : int;
  mutable n_bytes : int;
  mutable n_upcalls : int;
  mutable n_slow_probes : int;
  mutable n_handler_upcalls : int;
  mutable n_handler_slow_probes : int;
  mutable n_handler_bytes : int;
      (* of the upcalls, those {!apply_verdict} applied, their probes
         and bytes: the handler's share of the charge *)
  mutable n_revalidations : int;
  mutable n_reval_evicted : int;
  mutable last_b : Batch.t;
      (* the batch {!process_batch} ran last; {!last_megaflow} reads its
         last [mf] slot *)
  (* Optional attribution: per-port accounting and mask provenance.
     [None] (the default) leaves every path bit-for-bit as before. *)
  prov : Provenance.store option;
  (* Optional telemetry: histograms report into the registry (whose
     counters and gauges read this datapath's own counts, see
     [register]), the tracer records the event stream. All [None] when
     telemetry is disabled — the datapath then behaves exactly as
     before. *)
  tracer : Pi_telemetry.Tracer.t option;
  h_cycles : Pi_telemetry.Histogram.t option;
  h_probes : Pi_telemetry.Histogram.t option;
  h_upcall : Pi_telemetry.Histogram.t option;
}

let mf_alive (e : Megaflow.entry) = e.Megaflow.alive

(* Upcalls popped and classified per handler drain round. *)
let service_chunk = 64

(* Name this datapath's counts in [m]. Each counter and gauge reads the
   field of the structure that counts the event, so the registry can
   never disagree with {!n_processed}, {!Emc.hits} and the rest, and
   {!reset_stats} resets it too. *)
let register m t =
  let c name read = Pi_telemetry.Metrics.counter m name read in
  let g name read =
    Pi_telemetry.Metrics.gauge m name (fun () -> float_of_int (read ()))
  in
  c "packets" (fun () -> t.n_processed);
  c "emc_hit" (fun () -> Emc.hits t.emc);
  c "emc_miss" (fun () -> Emc.misses t.emc);
  c "mf_hit" (fun () -> Megaflow.hits t.mf);
  c "mf_miss" (fun () -> Megaflow.misses t.mf);
  c "mf_probes" (fun () -> Megaflow.total_probes t.mf);
  c "mask_created" (fun () -> Megaflow.masks_created t.mf);
  c "megaflow_evicted" (fun () -> Megaflow.evicted t.mf);
  c "upcall" (fun () -> t.n_upcalls);
  c "slow_probes" (fun () -> t.n_slow_probes);
  g "n_masks" (fun () -> Megaflow.n_masks t.mf);
  g "n_megaflows" (fun () -> Megaflow.n_entries t.mf);
  (* Only in deferred mode, so that a default (synchronous) datapath
     exports exactly the pre-queue snapshot keys. *)
  if not t.sync_upcalls then
    c "upcall_drops" (fun () -> Upcall_queue.drops t.uq)

let create ?(config = default_config) ?tss_config ?telemetry ?provenance rng
    () =
  let ctx = Option.value telemetry ~default:Pi_telemetry.Ctx.empty in
  let metrics = Pi_telemetry.Ctx.metrics ctx in
  let tracer = Pi_telemetry.Ctx.tracer ctx in
  let hist name =
    Option.map (fun m -> Pi_telemetry.Metrics.histogram m name) metrics
  in
  let one = Batch.create ~capacity:1 in
  let t =
    { cfg = config;
      emc =
        (* [valid] makes a cached-but-dead megaflow reference count (and
           evict) as a miss instead of inflating the EMC hit rate. *)
        Emc.create ~capacity:config.emc_capacity
          ~insert_inv_prob:config.emc_insert_inv_prob ~valid:mf_alive rng ();
      mf = Megaflow.create ~config:config.megaflow ();
      mcache =
        (match config.mask_cache_capacity with
         | Some capacity -> Some (Mask_cache.create ~capacity ())
         | None -> None);
      slow = Slowpath.create ?config:tss_config ();
      uq = Upcall_queue.create config.upcall_queue;
      sync_upcalls = Upcall_queue.synchronous config.upcall_queue;
      cy = Array.make 2 0.;
      least_now = [| infinity |];
      swept_rev = 0;  (* a new slow path's revision *)
      emc_deaths = 0;
      mf_stats = Megaflow.lookup_stats ();
      one;
      ck_pos = Array.make Slowpath.chunk 0;
      ck_n = 0;
      ck_next = 0;
      su_flows = Array.make service_chunk Pi_classifier.Flow.zero;
      su_lens = Array.make service_chunk 0;
      su_idx = Array.init service_chunk (fun i -> i);
      su_verd = Array.make service_chunk Slowpath.no_verdict;
      n_processed = 0;
      n_bytes = 0;
      n_upcalls = 0;
      n_slow_probes = 0;
      n_handler_upcalls = 0;
      n_handler_slow_probes = 0;
      n_handler_bytes = 0;
      n_revalidations = 0;
      n_reval_evicted = 0;
      last_b = one;
      prov = Option.map (fun reg -> Provenance.store ?metrics reg) provenance;
      tracer;
      h_cycles = hist "cycles_per_packet";
      h_probes = hist "mf_probes_per_lookup";
      h_upcall = hist "upcall_cycles" }
  in
  Option.iter (fun m -> register m t) metrics;
  t

let config t = t.cfg
let slowpath t = t.slow
let megaflow t = t.mf
let emc t = t.emc

(* A rule change cannot leave an entry of an empty megaflow cache with
   an old revision: every later install carries the new one. So the
   revalidator need not sweep for it. *)
let note_revision t =
  if Megaflow.n_entries t.mf = 0 then t.swept_rev <- Slowpath.revision t.slow

let install_rules t rules =
  Slowpath.install t.slow rules;
  note_revision t

let remove_rules t pred =
  let n = Slowpath.remove t.slow pred in
  note_revision t;
  n

let trace t ~now kind =
  match t.tracer with
  | Some tr -> Pi_telemetry.Tracer.record tr ~at:now kind
  | None -> ()

(* The handler cycles of an upcall that examined [slow_probes]
   subtables. Recomputed where used rather than let-bound: a float bound
   once and passed as an argument is boxed at its binding. *)
let[@inline] upcall_cycles t slow_probes =
  t.cfg.cost.Cost_model.upcall
  +. (float_of_int slow_probes *. t.cfg.cost.Cost_model.slow_probe)

(* Slow-path result → cached state: apply the mitigation hooks
   (narrowing transform, mask cap), install the megaflow, trace mask
   growth and refresh the EMC. Shared by the synchronous upcall path,
   which passes a borrowed [mask] from the slow path's scratch, and the
   deferred handler, which passes a frozen verdict's. Nothing here keeps
   [mask]: the megaflow cache copies it only when it makes a subtable,
   and provenance records the entry's own mask. Returns the installed
   entry as the [Some] the EMC stores. *)
let install t ~now flow ~action ~mask ~slow_probes ~rule_seq =
  (match t.h_upcall with
   | Some h -> Pi_telemetry.Histogram.observe h (upcall_cycles t slow_probes)
   | None -> ());
  (match t.tracer with
   | Some tr ->
     Pi_telemetry.Tracer.record tr ~at:now
       (Pi_telemetry.Tracer.Upcall { slow_probes })
   | None -> ());
  (* Mitigation hooks: optionally narrow the megaflow (still sound —
     more significant bits can only make the cached flow more
     specific) and cap the number of distinct masks by falling back
     to an exact-match megaflow once the cap is reached. *)
  let mask =
    match t.cfg.megaflow_transform with
    | None -> mask
    | Some f -> f mask
  in
  let mask =
    match t.cfg.mask_limit with
    | Some limit
      when Megaflow.n_masks t.mf >= limit
           && not (Megaflow.has_mask t.mf mask) ->
      Pi_classifier.Mask.exact
    | Some _ | None -> mask
  in
  let masks_before = Megaflow.n_masks t.mf in
  let origin =
    match t.prov with
    | Some p ->
      Some
        (Provenance.origin_for p ~port:(Pi_classifier.Flow.in_port flow)
           ~rule_seq)
    | None -> None
  in
  let e =
    Megaflow.insert t.mf ~key:flow ~mask ~action
      ~revision:(Slowpath.revision t.slow) ~now ?origin ()
  in
  let n_masks = Megaflow.n_masks t.mf in
  if n_masks > masks_before then
    trace t ~now (Pi_telemetry.Tracer.Mask_created { n_masks });
  (match (t.prov, origin) with
   | Some p, Some o ->
     Provenance.note_install p o ~mask:e.Megaflow.mask
       ~new_mask:(n_masks > masks_before)
       ~upcall_cycles:(upcall_cycles t slow_probes)
   | _ -> ());
  let r = Some e in
  if t.cfg.emc_enabled then Emc.insert_stored t.emc flow r;
  r

(* --- Packet processing -----------------------------------------------

   [process_batch] is the one classification path; [process] is a batch
   of one. It runs the hierarchy in two phases.

   Phase P (pure, vectorised): probe the EMC for every packet — no
   counters, no eviction, no RNG — to carve out the miss set, then one
   {!Megaflow.walk_batch} over the miss set precomputes each miss
   packet's (entry, probes, subtable). This is where the batch's cache
   locality comes from: each subtable is loaded once per batch, not
   once per packet.

   Phase C (completion): replay the per-packet bookkeeping in strict
   packet order, so counters, entry stamps, EMC insertion RNG draws,
   upcalls and traces are bit-for-bit those of the same packets run one
   at a time. Two guards keep the precomputed results sound. The
   [emc_clean] flag: no EMC write has happened since the probes ran — a
   pure hit can be committed directly ({!Emc.commit_hit}); after any
   insert, the slot is re-read with a real {!Emc.lookup} (which also
   counts the miss, or the hit if an in-batch insert landed the flow —
   exactly what one-at-a-time processing would see). A hit that went
   stale has no walk result, so that packet is walked alone. And when a
   synchronous upcall installs a megaflow mid-batch, the walk results
   of the miss-set packets still pending are patched against the one
   new entry ({!Megaflow.patch_walk}), so every packet keeps its
   precomputed result instead of re-scanning the cache. Synchronous
   upcalls are classified in chunks (below). Deferred-upcall mode never
   installs mid-batch. *)

let finish_b t (b : Batch.t) i action ~emc_hit ~mf_probes ~mf_hit ~upcall
    ~slow_probes =
  Batch.set_result b i action ~emc_hit ~mf_probes ~mf_hit ~upcall
    ~slow_probes;
  (* The cycle charge is accumulated by [add_cycles], and the cost is
     recomputed inside the telemetry branches below rather than
     let-bound here: a float with even one use as a plain function
     argument is boxed at its binding, which would put 2 minor words on
     every packet of the batch hit path. *)
  Cost_model.add_cycles t.cfg.cost t.cy ~emc_hit ~mf_probes ~mf_hit ~upcall
    ~slow_probes ~pkt_len:b.Batch.pkt_lens.(i);
  (match t.h_cycles with
   | Some h ->
     Pi_telemetry.Histogram.observe h
       (Cost_model.cycles_of t.cfg.cost ~emc_hit ~mf_probes ~mf_hit ~upcall
          ~slow_probes ~pkt_len:b.Batch.pkt_lens.(i))
   | None -> ());
  match t.prov with
  | Some p ->
    Provenance.account p
      ~port:(Pi_classifier.Flow.in_port b.Batch.flows.(i))
      ~outcome:
        { Cost_model.emc_hit; mf_probes; mf_hit; upcall; slow_probes;
          pkt_len = b.Batch.pkt_lens.(i) }
      ~cycles:
        (Cost_model.cycles_of t.cfg.cost ~emc_hit ~mf_probes ~mf_hit ~upcall
           ~slow_probes ~pkt_len:b.Batch.pkt_lens.(i))
  | None -> ()

(* Commit an EMC hit for packet [i]: [r] is the stored [Some entry],
   whose hit has already been counted (by {!Emc.commit_hit} on the pure
   path or by the real {!Emc.lookup}). *)
let commit_emc_hit t (b : Batch.t) ~now i r =
  match r with
  | Some e ->
    b.Batch.mf.(i) <- r;
    e.Megaflow.last_used <- now;
    e.Megaflow.n_packets <- e.Megaflow.n_packets + 1;
    e.Megaflow.n_bytes <- e.Megaflow.n_bytes + b.Batch.pkt_lens.(i);
    trace t ~now Pi_telemetry.Tracer.Emc_hit;
    finish_b t b i e.Megaflow.action ~emc_hit:true ~mf_probes:0
      ~mf_hit:false ~upcall:false ~slow_probes:0
  | None -> assert false

(* --- Chunked synchronous upcalls -------------------------------------

   A synchronous miss is not classified alone. The first packet of the
   burst that must upcall gathers a chunk: itself, then the pending
   miss-set packets whose walk result is still a miss, in packet order,
   up to {!Slowpath.chunk}. One subtable-major walk classifies them all
   into the slow path's scratch, and each packet installs from its own
   slot when its turn comes, reading the action, mask and probes in
   place — no verdict record, no frozen mask.

   Nothing is counted at gathering time, only when a packet actually
   upcalls. A gathered packet may never need its slot: an earlier
   install of the burst can serve it (patched into its walk result) or
   land its flow in the EMC. Its slot is then skipped as spent. The
   classifier is read-only during a burst, so a slot's result is the
   verdict a one-packet upcall would give its packet, whenever it is
   read. A packet that must upcall but is not next in the chunk — a
   stale EMC hit walked alone, or a packet whose hit a flow-limit
   eviction took away — gathers a new chunk from itself, which replaces
   the old one. *)

let rec skip_spent t i =
  if t.ck_next < t.ck_n && t.ck_pos.(t.ck_next) < i then begin
    t.ck_next <- t.ck_next + 1;
    skip_spent t i
  end

(* Append to the chunk, from slot [m], the pending miss-set packets of
   slots [jj, k) whose walk result is a miss; returns the chunk size. *)
let rec gather t (b : Batch.t) jj k m =
  if jj >= k || m >= Slowpath.chunk then m
  else if b.Batch.sc_tbl.(jj) < 0 then begin
    t.ck_pos.(m) <- b.Batch.sc_miss.(jj);
    gather t b (jj + 1) k (m + 1)
  end
  else gather t b (jj + 1) k m

(* The scratch slot classifying packet [i], whose pending miss-set slots
   are [lo, k). *)
let chunk_slot t (b : Batch.t) i ~lo ~k =
  skip_spent t i;
  if t.ck_next < t.ck_n && t.ck_pos.(t.ck_next) = i then begin
    let c = t.ck_next in
    t.ck_next <- c + 1;
    c
  end
  else begin
    t.ck_pos.(0) <- i;
    let m = gather t b lo k 1 in
    Slowpath.classify t.slow b.Batch.flows ~idx:t.ck_pos ~n:m;
    t.ck_n <- m;
    t.ck_next <- 1;
    0
  end

(* Commit packet [i]'s walk result, held in slot [j] of [w]'s walk
   scratch ([w] is [b] itself, or [t.one] for a stale EMC hit walked
   alone); [lo, k) are the miss-set slots still pending after it. Sound
   while every install since the walk has been patched in. Returns the
   dirty-state delta: 0 = no cache write, 1 = EMC possibly written, 2 =
   megaflow installed. *)
let complete_miss t (b : Batch.t) (w : Batch.t) ~now i j ~lo ~k =
  let flow = b.Batch.flows.(i) in
  let pkt_len = b.Batch.pkt_lens.(i) in
  let pre = w.Batch.sc_entry.(j) in
  let entry =
    match t.mcache with
    | Some cache ->
      Megaflow.commit_walk_hinted t.mf t.mf_stats cache flow pre ~now
        ~pkt_len ~probes:w.Batch.sc_probes.(j) ~tbl:w.Batch.sc_tbl.(j)
    | None ->
      Megaflow.commit_walk t.mf t.mf_stats pre ~now ~pkt_len
        ~probes:w.Batch.sc_probes.(j) ~tbl:w.Batch.sc_tbl.(j);
      pre
  in
  let probes = t.mf_stats.Megaflow.s_probes in
  match entry with
  | Some e ->
    b.Batch.mf.(i) <- entry;
    if t.cfg.emc_enabled then Emc.insert_stored t.emc flow entry;
    (* explicit match, not [observe]: the eagerly evaluated
       [float_of_int] argument would be boxed even with no histogram *)
    (match t.h_probes with
     | Some h -> Pi_telemetry.Histogram.observe h (float_of_int probes)
     | None -> ());
    (match t.tracer with
     | Some tr ->
       Pi_telemetry.Tracer.record tr ~at:now
         (Pi_telemetry.Tracer.Mf_hit { probes })
     | None -> ());
    finish_b t b i e.Megaflow.action ~emc_hit:false ~mf_probes:probes
      ~mf_hit:true ~upcall:false ~slow_probes:0;
    if t.cfg.emc_enabled then 1 else 0
  | None ->
    (match t.h_probes with
     | Some h -> Pi_telemetry.Histogram.observe h (float_of_int probes)
     | None -> ());
    if t.sync_upcalls then begin
      (* Synchronous model: classify inline, in chunks. *)
      let slow = t.slow in
      let c = chunk_slot t b i ~lo ~k in
      let action = Slowpath.slot_action slow c in
      let slow_probes = Slowpath.slot_probes slow c in
      t.n_upcalls <- t.n_upcalls + 1;
      t.n_slow_probes <- t.n_slow_probes + slow_probes;
      b.Batch.mf.(i) <-
        install t ~now flow ~action ~mask:(Slowpath.slot_megaflow slow c)
          ~slow_probes ~rule_seq:(Slowpath.slot_rule_seq slow c);
      finish_b t b i action ~emc_hit:false ~mf_probes:probes ~mf_hit:false
        ~upcall:true ~slow_probes;
      2
    end
    else begin
      (* Deferred model: the miss posts an upcall (one per packet,
         duplicates included — the kernel's per-packet Netlink queue)
         and the packet itself is not forwarded this tick; the handler
         resolves the flow in {!service_upcalls}. A full queue means
         the packet — and its upcall — is dropped on the floor; the
         item is built only once the queue has room for it. *)
      let pushed =
        if Upcall_queue.full t.uq then begin
          Upcall_queue.drop t.uq;
          false
        end
        else
          Upcall_queue.push t.uq
            { ui_flow = flow; ui_pkt_len = pkt_len; ui_at = now }
      in
      (* matched, not [trace]d: the event record would be built even
         with no tracer *)
      (match t.tracer with
       | Some tr ->
         let queued = Upcall_queue.length t.uq in
         Pi_telemetry.Tracer.record tr ~at:now
           (if pushed then Pi_telemetry.Tracer.Upcall_enqueued { queued }
            else Pi_telemetry.Tracer.Upcall_dropped { queued })
       | None -> ());
      b.Batch.mf.(i) <- None;
      finish_b t b i Action.Drop ~emc_hit:false ~mf_probes:probes
        ~mf_hit:false ~upcall:false ~slow_probes:0;
      0
    end

(* Phase C. [i] is the packet position, [j] its position in the miss
   set of [k] packets. Top-level tail recursion with the flag as a
   parameter — a local [ref] cell would allocate per batch. *)
let rec complete_batch t (b : Batch.t) ~now i n j k emc_clean =
  if i < n then begin
    t.n_processed <- t.n_processed + 1;
    t.n_bytes <- t.n_bytes + b.Batch.pkt_lens.(i);
    if not t.cfg.emc_enabled then
      next_packet t b ~now i n (j + 1) k emc_clean
        (complete_miss t b b ~now i j ~lo:(j + 1) ~k)
    else
      match b.Batch.sc_emc.(i) with
      | Some _ as r when emc_clean ->
        Emc.commit_hit t.emc;
        commit_emc_hit t b ~now i r;
        complete_batch t b ~now (i + 1) n j k emc_clean
      | Some _ -> begin
        (* The pure hit may be stale (slot overwritten, entry killed):
           re-read for real — the lookup's own counting is exactly what
           one-at-a-time processing would have done here. *)
        match Emc.lookup t.emc b.Batch.flows.(i) with
        | Some _ as r ->
          commit_emc_hit t b ~now i r;
          complete_batch t b ~now (i + 1) n j k emc_clean
        | None ->
          (* Stale: the packet has no walk result, so walk it alone. *)
          let w = t.one in
          w.Batch.sc_miss.(0) <- i;
          Megaflow.walk_batch t.mf b.Batch.flows ~idx:w.Batch.sc_miss ~n:1
            ~out_entry:w.Batch.sc_entry ~out_probes:w.Batch.sc_probes
            ~out_tbl:w.Batch.sc_tbl;
          next_packet t b ~now i n j k emc_clean
            (complete_miss t b w ~now i 0 ~lo:j ~k)
      end
      | None -> begin
        (* A pure miss can have become a hit if an in-batch insert
           landed this flow; the real lookup answers (and counts)
           authoritatively. *)
        match Emc.lookup t.emc b.Batch.flows.(i) with
        | Some _ as r ->
          commit_emc_hit t b ~now i r;
          complete_batch t b ~now (i + 1) n (j + 1) k emc_clean
        | None ->
          next_packet t b ~now i n (j + 1) k emc_clean
            (complete_miss t b b ~now i j ~lo:(j + 1) ~k)
      end
  end

(* After packet [i] took the miss path with dirty delta [d]: an install
   is patched into the walk results of the pending miss-set slots
   [j, k) before the next packet. *)
and next_packet t b ~now i n j k emc_clean d =
  if d = 2 then
    Megaflow.patch_walk t.mf b.Batch.flows ~idx:b.Batch.sc_miss ~lo:j ~n:k
      ~out_entry:b.Batch.sc_entry ~out_probes:b.Batch.sc_probes
      ~out_tbl:b.Batch.sc_tbl;
  complete_batch t b ~now (i + 1) n j k (emc_clean && d = 0)

let process_batch t (b : Batch.t) ~now =
  let n = b.Batch.n in
  if n > 0 then begin
    if now < t.least_now.(0) then t.least_now.(0) <- now;
    t.last_b <- b;
    t.ck_n <- 0;
    t.ck_next <- 0;
    let k =
      if t.cfg.emc_enabled then
        Emc.lookup_batch t.emc b.Batch.flows ~n ~out:b.Batch.sc_emc
          ~miss_idx:b.Batch.sc_miss
      else begin
        (* No EMC: every packet is in the miss set. *)
        for i = 0 to n - 1 do
          b.Batch.sc_miss.(i) <- i;
          b.Batch.sc_emc.(i) <- None
        done;
        n
      end
    in
    Megaflow.walk_batch t.mf b.Batch.flows ~idx:b.Batch.sc_miss ~n:k
      ~out_entry:b.Batch.sc_entry ~out_probes:b.Batch.sc_probes
      ~out_tbl:b.Batch.sc_tbl;
    complete_batch t b ~now 0 n 0 k true
  end

let process t ~now flow ~pkt_len =
  let b = t.one in
  Batch.clear b;
  Batch.push b flow ~pkt_len;
  process_batch t b ~now;
  Batch.result b 0

let pop_pending_upcall t =
  match Upcall_queue.pop t.uq with
  | None -> None
  | Some { ui_flow; ui_pkt_len; ui_at } -> Some (ui_flow, ui_pkt_len, ui_at)

(* Handler-side half of a deferred upcall: account the resolution,
   install the megaflow + EMC entry, and charge handler cycles. The
   verdict comes from {!Slowpath.upcall} — inline in [service_upcalls],
   or on the handler domain in the PMD pipeline (which then ships the
   verdict back so the shard owner applies it to its own caches). *)
let apply_verdict t ~now flow ~pkt_len (v : Slowpath.verdict) =
  t.n_upcalls <- t.n_upcalls + 1;
  t.n_slow_probes <- t.n_slow_probes + v.Slowpath.probes;
  t.n_handler_upcalls <- t.n_handler_upcalls + 1;
  t.n_handler_slow_probes <- t.n_handler_slow_probes + v.Slowpath.probes;
  t.n_handler_bytes <- t.n_handler_bytes + pkt_len;
  ignore
    (install t ~now flow ~action:v.Slowpath.action ~mask:v.Slowpath.megaflow
       ~slow_probes:v.Slowpath.probes ~rule_seq:v.Slowpath.rule_seq);
  let c =
    Cost_model.cycles t.cfg.cost
      { Cost_model.emc_hit = false; mf_probes = 0; mf_hit = false;
        upcall = true; slow_probes = v.Slowpath.probes; pkt_len }
  in
  t.cy.(1) <- t.cy.(1) +. c;
  match t.prov with
  | Some p ->
    Provenance.account_handler p ~port:(Pi_classifier.Flow.in_port flow)
      ~slow_probes:v.Slowpath.probes ~cycles:c
  | None -> ()

(* Drain up to the configured handler budget of pending upcalls: the
   per-tick slice of ovs-vswitchd's handler threads. Handler work is
   charged to handler cycles — handler threads run beside the PMD, so
   deferred classification does not consume fast-path budget.

   The drain is batched: pop a chunk, classify the whole chunk with one
   subtable-major walk ({!Slowpath.upcall_batch}), then apply the
   verdicts in pop order. Bit-for-bit the sequential drain: the
   classifier is read-only while the chunk is classified (verdict
   installs touch only the megaflow/EMC), so each verdict equals the one
   the item would have received one-at-a-time. *)
let service_upcalls t ~now =
  if now < t.least_now.(0) then t.least_now.(0) <- now;
  let budget = Upcall_queue.budget t.uq in
  let serviced = ref 0 in
  let continue = ref true in
  while !continue && !serviced < budget do
    let want = min (budget - !serviced) service_chunk in
    let k = ref 0 in
    while !k < want && !continue do
      match Upcall_queue.pop t.uq with
      | None -> continue := false
      | Some { ui_flow; ui_pkt_len; ui_at = _ } ->
        t.su_flows.(!k) <- ui_flow;
        t.su_lens.(!k) <- ui_pkt_len;
        incr k
    done;
    let k = !k in
    if k > 0 then begin
      Slowpath.upcall_batch t.slow t.su_flows ~idx:t.su_idx ~n:k
        ~out:t.su_verd;
      for m = 0 to k - 1 do
        apply_verdict t ~now t.su_flows.(m) ~pkt_len:t.su_lens.(m)
          t.su_verd.(m)
      done;
      serviced := !serviced + k
    end
  done;
  !serviced

let mask_cache t = t.mcache

(* The revalidator skips work that provably changes nothing. A full
   megaflow sweep is needed only if some entry may carry an old
   revision (the slow-path revision moved since the last full sweep, or
   since a rule change met an empty cache) or may be idle. Every live
   [last_used] is at least the megaflow's own bound (survivors of the
   last sweep, later inserts; {!Megaflow.may_have_idle}) or the least
   [now] of the bursts since (hits), and float subtraction is monotone,
   so when [now] is within the idle timeout of both, no entry is idle.
   An EMC value can be dead only if a megaflow died after the last EMC
   sweep, so the EMC is swept only when the death count moved. *)
let revalidate t ~now =
  if t.cfg.rank_subtables then Megaflow.resort_by_hits t.mf;
  let rev = Slowpath.revision t.slow in
  let evicted =
    if
      rev <> t.swept_rev
      || Megaflow.may_have_idle t.mf ~now
      || now -. t.least_now.(0) > t.cfg.megaflow.Megaflow.idle_timeout
    then begin
      t.swept_rev <- rev;
      t.least_now.(0) <- infinity;
      Megaflow.revalidate t.mf ~now
        ~keep:(fun e -> e.Megaflow.revision = rev)
        ()
    end
    else 0
  in
  let deaths = Megaflow.deaths t.mf in
  if t.cfg.emc_enabled && deaths <> t.emc_deaths then begin
    t.emc_deaths <- deaths;
    ignore (Emc.invalidate_if t.emc (fun e -> not e.Megaflow.alive))
  end;
  t.n_revalidations <- t.n_revalidations + 1;
  t.n_reval_evicted <- t.n_reval_evicted + evicted;
  if evicted > 0 then
    trace t ~now (Pi_telemetry.Tracer.Megaflow_evicted { count = evicted });
  (* matched, not [trace]d: the event record would be built even with
     no tracer *)
  (match t.tracer with
   | Some tr ->
     Pi_telemetry.Tracer.record tr ~at:now
       (Pi_telemetry.Tracer.Revalidate
          { evicted; n_masks = Megaflow.n_masks t.mf })
   | None -> ());
  if evicted > 0 then
    Log.debug (fun m ->
        m "revalidator: evicted %d megaflows (%d masks remain)" evicted
          (Megaflow.n_masks t.mf));
  evicted

let last_megaflow t =
  let b = t.last_b in
  if b.Batch.n = 0 then None else b.Batch.mf.(b.Batch.n - 1)

let provenance t = t.prov
let perf_counts t ~batches =
  { Pi_telemetry.Perf.packets = t.n_processed;
    bytes = t.n_bytes;
    emc_hits = Emc.hits t.emc;
    mf_hits = Megaflow.hits t.mf;
    mf_probes = Megaflow.total_probes t.mf;
    upcalls = t.n_upcalls;
    slow_probes = t.n_slow_probes;
    handler_upcalls = t.n_handler_upcalls;
    handler_slow_probes = t.n_handler_slow_probes;
    handler_bytes = t.n_handler_bytes;
    batches;
    reval_sweeps = t.n_revalidations;
    reval_evicted = t.n_reval_evicted }

let cycles_used t = t.cy.(0)
let handler_cycles_used t = t.cy.(1)
let n_processed t = t.n_processed
let n_upcalls t = t.n_upcalls
let n_slow_probes t = t.n_slow_probes
let upcall_drops t = Upcall_queue.drops t.uq
let pending_upcalls t = Upcall_queue.length t.uq
let n_masks t = Megaflow.n_masks t.mf
let n_megaflows t = Megaflow.n_entries t.mf

let reset_stats t =
  t.cy.(0) <- 0.;
  t.cy.(1) <- 0.;
  t.n_processed <- 0;
  t.n_bytes <- 0;
  t.n_upcalls <- 0;
  t.n_slow_probes <- 0;
  t.n_handler_upcalls <- 0;
  t.n_handler_slow_probes <- 0;
  t.n_handler_bytes <- 0;
  t.n_revalidations <- 0;
  t.n_reval_evicted <- 0;
  (* Drain, don't keep: stale queued misses from before the measurement
     window would otherwise be serviced inside it and charge their
     handler work to the wrong window. The drained items are not counted
     as drops — they belong to no window any more. *)
  Upcall_queue.reset t.uq;
  Option.iter Provenance.reset_ports t.prov;
  Megaflow.reset_stats t.mf;
  Emc.reset_stats t.emc
