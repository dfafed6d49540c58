open Pi_classifier

type t = {
  cap : int;
  mutable n : int;
  (* inputs *)
  flows : Flow.t array;
  pkt_lens : int array;
  (* per-packet results, written by [Dataplane.process_batch] *)
  actions : Action.t array;
  emc_hit : bool array;
  mf_probes : int array;
  mf_hit : bool array;
  upcall : bool array;
  slow_probes : int array;
  mf : Megaflow.entry option array;
      (* the megaflow entry that served or was installed for each packet;
         written by the datapath beside the other results, not by
         [set_result] *)
  (* walk scratch, owned by [Datapath.process_batch]: the EMC-miss set
     (positions into the batch), the pure EMC probe answers, and the
     precomputed megaflow walk results for each miss-set slot. *)
  sc_miss : int array;
  sc_emc : Megaflow.entry option array;
  sc_entry : Megaflow.entry option array;
  sc_probes : int array;
  sc_tbl : int array;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Batch.create: capacity";
  { cap = capacity;
    n = 0;
    flows = Array.make capacity Flow.zero;
    pkt_lens = Array.make capacity 0;
    actions = Array.make capacity Action.Drop;
    emc_hit = Array.make capacity false;
    mf_probes = Array.make capacity 0;
    mf_hit = Array.make capacity false;
    upcall = Array.make capacity false;
    slow_probes = Array.make capacity 0;
    mf = Array.make capacity None;
    sc_miss = Array.make capacity 0;
    sc_emc = Array.make capacity None;
    sc_entry = Array.make capacity None;
    sc_probes = Array.make capacity 0;
    sc_tbl = Array.make capacity (-1) }

let capacity t = t.cap
let length t = t.n
let clear t = t.n <- 0

let push t flow ~pkt_len =
  if t.n >= t.cap then invalid_arg "Batch.push: batch full";
  t.flows.(t.n) <- flow;
  t.pkt_lens.(t.n) <- pkt_len;
  t.n <- t.n + 1

let fill t pkts =
  let n = Array.length pkts in
  if n > t.cap then invalid_arg "Batch.fill: batch overflow";
  for i = 0 to n - 1 do
    let flow, pkt_len = pkts.(i) in
    t.flows.(i) <- flow;
    t.pkt_lens.(i) <- pkt_len
  done;
  t.n <- n

let flow t i = t.flows.(i)
let pkt_len t i = t.pkt_lens.(i)
let action t i = t.actions.(i)

let set_result t i action ~emc_hit ~mf_probes ~mf_hit ~upcall ~slow_probes =
  t.actions.(i) <- action;
  t.emc_hit.(i) <- emc_hit;
  t.mf_probes.(i) <- mf_probes;
  t.mf_hit.(i) <- mf_hit;
  t.upcall.(i) <- upcall;
  t.slow_probes.(i) <- slow_probes

(* Copy slot [m] of [src]'s results to slot [i] of [dst] — the PMD
   scatter step, shard batch back into the parent batch. *)
let blit_result src m dst i =
  dst.actions.(i) <- src.actions.(m);
  dst.emc_hit.(i) <- src.emc_hit.(m);
  dst.mf_probes.(i) <- src.mf_probes.(m);
  dst.mf_hit.(i) <- src.mf_hit.(m);
  dst.upcall.(i) <- src.upcall.(m);
  dst.slow_probes.(i) <- src.slow_probes.(m);
  dst.mf.(i) <- src.mf.(m)

(* Compat shims for the tuple-returning burst API: these materialise the
   [Cost_model.outcome] record, so they belong in [process_burst]-style
   wrappers, never in the batch hot path. *)
let outcome t i =
  { Cost_model.emc_hit = t.emc_hit.(i);
    mf_probes = t.mf_probes.(i);
    mf_hit = t.mf_hit.(i);
    upcall = t.upcall.(i);
    slow_probes = t.slow_probes.(i);
    pkt_len = t.pkt_lens.(i) }

let result t i = (t.actions.(i), outcome t i)
