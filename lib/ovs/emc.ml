open Pi_classifier

(* Parallel-array slots: [values.(i)] is the stored (already-boxed)
   [Some v] for an occupied slot, so a hit returns it as-is — the
   steady-state EMC-hit path allocates nothing. [keys.(i)] is only
   meaningful while [values.(i)] is [Some _]. *)
type 'a t = {
  keys : Flow.t array;
  values : 'a option array;
  mask : int;  (* capacity - 1 *)
  insert_inv_prob : int;
  valid : 'a -> bool;
  rng : Pi_pkt.Prng.t;
  mutable occupied : int;
  mutable hits : int;
  mutable misses : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let always_valid _ = true

let create ?(capacity = 8192) ?(insert_inv_prob = 4) ?(valid = always_valid)
    rng () =
  if capacity < 1 then invalid_arg "Emc.create: capacity";
  if insert_inv_prob < 1 then invalid_arg "Emc.create: insert_inv_prob";
  let cap = next_pow2 capacity in
  { keys = Array.make cap Flow.zero;
    values = Array.make cap None;
    mask = cap - 1;
    insert_inv_prob;
    valid;
    rng;
    occupied = 0;
    hits = 0;
    misses = 0 }

let capacity t = Array.length t.values

let slot_of t flow = Flow.hash flow land t.mask

(* Top-level (not a closure inside [lookup]): an inner [let miss () =]
   helper would be heap-allocated on every call, breaking the zero-
   allocation guarantee of the steady-state hit path. *)
let record_miss t =
  t.misses <- t.misses + 1;
  None

let lookup t flow =
  let i = slot_of t flow in
  match t.values.(i) with
  | Some v as r when Flow.equal t.keys.(i) flow ->
    if t.valid v then begin
      t.hits <- t.hits + 1;
      r
    end
    else begin
      (* The cached value is dead (e.g. its megaflow was evicted): that
         is a miss, not a hit — and the slot is reclaimed so the next
         packet does not pay the dead probe again. *)
      t.values.(i) <- None;
      t.occupied <- t.occupied - 1;
      record_miss t
    end
  | Some _ | None -> record_miss t

(* Pure probe: no hit/miss statistics, no dead-slot reclamation. The
   batch path probes the whole burst first (to carve out the miss set
   for the subtable-major megaflow walk) and replays the statistics at
   completion time in packet order, so the probe itself must leave the
   cache untouched. A dead slot answers [None], like [lookup] — the
   completion-time [lookup] then reclaims it and counts the miss. *)
let probe t flow =
  let i = slot_of t flow in
  match t.values.(i) with
  | Some v as r when Flow.equal t.keys.(i) flow && t.valid v -> r
  | Some _ | None -> None

(* Completion-time half of a pure {!probe} hit: apply exactly the
   bookkeeping [lookup] would have performed on the hit path. Only valid
   while no insert has run since the probe (the caller's [emc_clean]
   discipline); otherwise re-run [lookup] for the authoritative answer. *)
let commit_hit t = t.hits <- t.hits + 1

(* Pure probe over packets [0, n): [out.(i)] receives the stored hit
   option, the miss positions land densely in [miss_idx], and the miss
   count is returned. Allocation-free (top-level recursion; the hit
   options are the stored ones). *)
let rec probe_batch t flows n out miss_idx i k =
  if i >= n then k
  else begin
    match probe t flows.(i) with
    | Some _ as r ->
      out.(i) <- r;
      probe_batch t flows n out miss_idx (i + 1) k
    | None ->
      out.(i) <- None;
      miss_idx.(k) <- i;
      probe_batch t flows n out miss_idx (i + 1) (k + 1)
  end

let lookup_batch t flows ~n ~out ~miss_idx =
  probe_batch t flows n out miss_idx 0 0

(* Overwrite slot [i], the key's, with the already-boxed option [r]. *)
let store t i flow r =
  (match t.values.(i) with None -> t.occupied <- t.occupied + 1 | Some _ -> ());
  t.keys.(i) <- flow;
  t.values.(i) <- r

(* A slot that already holds this very key and value is left as it
   is: rewriting it would change nothing but cost a fresh [Some] and two
   write barriers. The scenario's keep-alive inserts hit this case more
   often than not. *)
let insert_forced t flow value =
  let i = slot_of t flow in
  match t.values.(i) with
  | Some v when v == value && t.keys.(i) == flow -> ()
  | Some _ | None -> store t i flow (Some value)

let sampled t =
  t.insert_inv_prob = 1 || Pi_pkt.Prng.int t.rng t.insert_inv_prob = 0

let insert t flow value = if sampled t then insert_forced t flow value

let insert_stored t flow r =
  match r with
  | Some _ -> if sampled t then store t (slot_of t flow) flow r
  | None -> invalid_arg "Emc.insert_stored: None"

let invalidate_if t pred =
  let n = ref 0 in
  for i = 0 to Array.length t.values - 1 do
    match t.values.(i) with
    | Some v when pred v ->
      t.values.(i) <- None;
      t.occupied <- t.occupied - 1;
      incr n
    | Some _ | None -> ()
  done;
  !n

let clear t =
  Array.fill t.values 0 (Array.length t.values) None;
  t.occupied <- 0

let occupancy t = t.occupied

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
