(* Per-stage cycle profile: dpif-netdev's pmd-perf counters for this
   repository's cost model, as a view.

   A [t] holds the cost coefficients and a reader of the owners' counts;
   it stores no count itself. Every stage's charge is linear in those
   counts (the cost model is a linear form), so

     stage_cycles = coefficient . counts

   evaluated on demand. Deriving from exact integer totals also makes
   the decomposition independent of accumulation order: sequential and
   Domain-parallel shard runs merge to bit-identical stage totals. *)

type counts = {
  packets : int;
  bytes : int;
  emc_hits : int;
  mf_hits : int;
  mf_probes : int;
  upcalls : int;
  slow_probes : int;
  handler_upcalls : int;
  handler_slow_probes : int;
  handler_bytes : int;
  batches : int;
  reval_sweeps : int;
  reval_evicted : int;
}

type coef = {
  emc_lookup : float;
  mf_probe : float;
  mf_hit_fixed : float;
  upcall : float;
  slow_probe : float;
  per_byte : float;
  batch : float;
}

type t = { coef : coef; read : unit -> counts }

let v ~emc_lookup ~mf_probe ~mf_hit_fixed ~upcall ~slow_probe ~per_byte
    ~batch read =
  { coef =
      { emc_lookup; mf_probe; mf_hit_fixed; upcall; slow_probe; per_byte;
        batch };
    read }

let counts t = t.read ()

(* Stage indices. *)
let stage_steer = 0   (* rx/steering: the per-byte packet copy *)
let stage_emc = 1     (* EMC probe + hit fixed cost on an EMC hit *)
let stage_mf = 2      (* megaflow TSS walk + hit fixed cost on a hit *)
let stage_upcall = 3  (* slow path: inline upcalls and deferred handler *)
let stage_reval = 4   (* revalidation sweeps (counted; no modelled cost) *)
let stage_batch = 5   (* fixed per-rx-burst overhead *)
let n_stages = 6

let stage_name = function
  | 0 -> "steering"
  | 1 -> "emc"
  | 2 -> "megaflow"
  | 3 -> "upcall"
  | 4 -> "revalidation"
  | 5 -> "batch"
  | _ -> invalid_arg "Perf.stage_name"

(* The cost model's [cycles_of] term maps onto the counts as

     steering <- per_byte * bytes
     emc      <- emc_lookup * packets + mf_hit_fixed * emc_hits
     megaflow <- mf_probe * mf_probes + mf_hit_fixed * mf_hits
     upcall   <- upcall * inline upcalls + slow_probe * inline probes

   and a deferred verdict's whole handler charge (emc_lookup + upcall +
   slow_probes * slow_probe + pkt_len * per_byte) is slow-path work, so
   it lands on the upcall stage in one piece. *)
let stage k c i =
  let f = float_of_int in
  match i with
  | 0 (* steer *) -> k.per_byte *. f c.bytes
  | 1 (* emc *) -> (k.emc_lookup *. f c.packets) +. (k.mf_hit_fixed *. f c.emc_hits)
  | 2 (* mf *) -> (k.mf_probe *. f c.mf_probes) +. (k.mf_hit_fixed *. f c.mf_hits)
  | 3 (* upcall *) ->
    (k.upcall *. f (c.upcalls - c.handler_upcalls))
    +. (k.slow_probe *. f (c.slow_probes - c.handler_slow_probes))
    +. ((k.emc_lookup +. k.upcall) *. f c.handler_upcalls)
    +. (k.slow_probe *. f c.handler_slow_probes)
    +. (k.per_byte *. f c.handler_bytes)
  | 4 (* reval: counted, no modelled cost *) -> 0.
  | 5 (* batch *) -> k.batch *. f c.batches
  | _ -> invalid_arg "Perf.stage_cycles"

let stage_cycles t i = stage t.coef (t.read ()) i

let total_cycles t =
  let c = t.read () in
  let s = ref 0. in
  for i = 0 to n_stages - 1 do
    s := !s +. stage t.coef c i
  done;
  !s

let add a b =
  { packets = a.packets + b.packets;
    bytes = a.bytes + b.bytes;
    emc_hits = a.emc_hits + b.emc_hits;
    mf_hits = a.mf_hits + b.mf_hits;
    mf_probes = a.mf_probes + b.mf_probes;
    upcalls = a.upcalls + b.upcalls;
    slow_probes = a.slow_probes + b.slow_probes;
    handler_upcalls = a.handler_upcalls + b.handler_upcalls;
    handler_slow_probes = a.handler_slow_probes + b.handler_slow_probes;
    handler_bytes = a.handler_bytes + b.handler_bytes;
    batches = a.batches + b.batches;
    reval_sweeps = a.reval_sweeps + b.reval_sweeps;
    reval_evicted = a.reval_evicted + b.reval_evicted }

let merge a b = { coef = a.coef; read = (fun () -> add (a.read ()) (b.read ())) }
