(* Every view of a count agrees, before and after a reset.

   A count has one store, the structure that counts the event; the
   metrics registry, [Dataplane.stats], the per-stage profile and the
   provenance ports are views of it. Random command sequences (the
   revalidator suite's, plus [reset_stats]) drive a deterministic [Pmd]
   of 1, 2 and 4 shards and the cache-less backend, with metrics and
   provenance on. After every command:
   - each shard's registry counters and gauges equal the accessors they
     name, no more and no fewer;
   - summed over the shards, [stats.packets] = registry [packets];
     [stats.emc_hits] = [emc_hit]; [stats.upcalls] = [upcall];
     [stats.upcall_drops] = [upcall_drops];
   - the per-port packet counts sum to [stats.packets];
   - the shards' profiles, made once when the [Pmd] is, price what the
     [Pmd] charged: their merged stage sum equals [Pmd.cycles_used +
     Pmd.handler_cycles_used] to a relative 1e-9, their merged
     [batches] equals [Pmd.n_batches], and each shard's [reval_sweeps]
     and the merged [reval_evicted] equal the [revalidate] calls and the
     megaflows they evicted since the last reset. *)

open Pi_ovs
open Pi_classifier
module Metrics = Pi_telemetry.Metrics
module Perf = Pi_telemetry.Perf
module R = Test_revalidator

type backend = Pmd_shards of int | Cacheless

type cmd = Base of R.cmd | Reset

type case = {
  backend : backend;
  deferred : bool;
  max_entries : int;
  batch_size : int;
  cmds : cmd list;
}

let show_backend = function
  | Pmd_shards n -> Printf.sprintf "pmd %d shard(s)" n
  | Cacheless -> "cacheless"

let show c =
  Printf.sprintf "%s deferred:%b max_entries:%d batch:%d\n%s"
    (show_backend c.backend) c.deferred c.max_entries c.batch_size
    (String.concat "\n"
       (List.map
          (function Base b -> R.show_cmd b | Reset -> "reset")
          c.cmds))

let gen_case =
  let open QCheck2.Gen in
  let gen_cmd =
    frequency [ (9, map (fun b -> Base b) R.gen_cmd); (2, return Reset) ]
  in
  let* backend =
    oneofl [ Pmd_shards 1; Pmd_shards 2; Pmd_shards 4; Cacheless ]
  in
  let* deferred = bool in
  let* max_entries = oneofl [ 3; 200_000 ] in
  let* batch_size = int_range 1 8 in
  let* cmds = list_size (int_range 5 30) gen_cmd in
  return { backend; deferred; max_entries; batch_size; cmds }

(* A backend under test: the command operations and the views the
   checks read. *)
type dut = {
  process_batch : Batch.t -> now:float -> unit;
  install_rules : Action.t Rule.t list -> unit;
  remove_rules : (Action.t Rule.t -> bool) -> int;
  flush : unit -> unit;
  service_upcalls : now:float -> int;
  revalidate : now:float -> int;
  reset_stats : unit -> unit;
  stats : unit -> Dataplane.stats;
  registries : Metrics.t list;  (* one per shard *)
  named : int -> (string * int) list * (string * float) list;
      (* shard [i]'s counts and levels, under the names its registry
         must give them *)
  perf : Perf.t list;  (* one per shard; [] on the cache-less backend *)
  charged : unit -> float;  (* fast-path plus handler cycles *)
  n_batches : unit -> int;
  prov : Provenance.store list;
}

let shard_names deferred prov dp =
  let mf = Datapath.megaflow dp and emc = Datapath.emc dp in
  let ports =
    match prov with
    | None -> []
    | Some store ->
      List.concat_map
        (fun (p : Provenance.port_row) ->
          let n s = Printf.sprintf "port%d/%s" p.Provenance.p_port s in
          [ (n "packets", p.Provenance.p_packets);
            (n "emc_hit", p.Provenance.p_emc_hits);
            (n "mf_hit", p.Provenance.p_mf_hits);
            (n "mf_probes", p.Provenance.p_mf_probes);
            (n "upcall", p.Provenance.p_upcalls) ])
        (Provenance.report [ store ]).Provenance.ports
  in
  let counters =
    [ ("packets", Datapath.n_processed dp);
      ("emc_hit", Emc.hits emc);
      ("emc_miss", Emc.misses emc);
      ("mf_hit", Megaflow.hits mf);
      ("mf_miss", Megaflow.misses mf);
      ("mf_probes", Megaflow.total_probes mf);
      ("mask_created", Megaflow.masks_created mf);
      ("megaflow_evicted", Megaflow.evicted mf);
      ("upcall", Datapath.n_upcalls dp);
      ("slow_probes", Datapath.n_slow_probes dp) ]
    @ (if deferred then [ ("upcall_drops", Datapath.upcall_drops dp) ] else [])
    @ ports
  in
  ( List.sort compare counters,
    [ ("n_masks", float_of_int (Datapath.n_masks dp));
      ("n_megaflows", float_of_int (Datapath.n_megaflows dp)) ] )

(* [Dataplane.pmd]'s [stats], which forwards these [Pmd] sums. *)
let pmd_stats pmd =
  let emc f =
    let n = ref 0 in
    for s = 0 to Pmd.n_shards pmd - 1 do
      n := !n + f (Datapath.emc (Pmd.shard pmd s))
    done;
    !n
  in
  { Dataplane.packets = Pmd.n_processed pmd;
    upcalls = Pmd.n_upcalls pmd;
    upcall_drops = Pmd.upcall_drops pmd;
    pending_upcalls = Pmd.pending_upcalls pmd;
    masks = Pmd.n_masks pmd;
    megaflows = Pmd.n_megaflows pmd;
    cycles = Pmd.cycles_used pmd;
    handler_cycles = Pmd.handler_cycles_used pmd;
    emc_hits = emc Emc.hits;
    emc_misses = emc Emc.misses;
    emc_occupancy = emc Emc.occupancy }

let make c =
  let telemetry =
    Pi_telemetry.Ctx.v ~metrics:(Metrics.create ()) ()
  in
  let provenance = Provenance.registry () in
  let rng = Pi_pkt.Prng.create 11L in
  match c.backend with
  | Cacheless ->
    let d =
      Dataplane.create ~telemetry ~provenance
        (Pi_mitigation.Cacheless.dataplane ())
        rng
    in
    { process_batch = Dataplane.process_batch d;
      install_rules = Dataplane.install_rules d;
      remove_rules = Dataplane.remove_rules d;
      flush = ignore;
      service_upcalls = Dataplane.service_upcalls d;
      revalidate = Dataplane.revalidate d;
      reset_stats = (fun () -> Dataplane.reset_stats d);
      stats = (fun () -> Dataplane.stats d);
      registries = Option.to_list (Dataplane.shard_metrics d 0);
      named =
        (fun _ -> ([ ("packets", (Dataplane.stats d).Dataplane.packets) ], []));
      perf = [];
      charged = (fun () -> 0.);
      n_batches = (fun () -> 0);
      prov = Dataplane.provenance d }
  | Pmd_shards n_shards ->
    let config =
      { Pmd.default_config with
        Pmd.n_shards; batch_size = c.batch_size; parallel = false;
        dp =
          { Datapath.default_config with
            Datapath.emc_insert_inv_prob = 2;
            megaflow =
              { Megaflow.max_entries = c.max_entries;
                idle_timeout = R.idle_timeout };
            upcall_queue =
              (if c.deferred then Upcall_queue.bounded ~handler_budget:4 16
               else Upcall_queue.default_config) } }
    in
    let pmd = Pmd.create ~config ~telemetry ~provenance rng () in
    let shards = List.init n_shards (Pmd.shard pmd) in
    let prov = Pmd.provenance pmd in
    { process_batch = Pmd.process_batch pmd;
      install_rules = Pmd.install_rules pmd;
      remove_rules = Pmd.remove_rules pmd;
      flush =
        (fun () -> List.iter (fun s -> Megaflow.flush (Datapath.megaflow s)) shards);
      service_upcalls = Pmd.service_upcalls pmd;
      revalidate = Pmd.revalidate pmd;
      reset_stats = (fun () -> Pmd.reset_stats pmd);
      stats = (fun () -> pmd_stats pmd);
      registries = List.init n_shards (fun i -> Option.get (Pmd.shard_metrics pmd i));
      named =
        (fun i ->
          shard_names c.deferred (List.nth_opt prov i) (Pmd.shard pmd i));
      perf = List.init n_shards (fun i -> Option.get (Pmd.shard_perf pmd i));
      charged = (fun () -> Pmd.cycles_used pmd +. Pmd.handler_cycles_used pmd);
      n_batches = (fun () -> Pmd.n_batches pmd);
      prov }

(* [reval] counts the revalidate calls since the last reset and the
   megaflows they evicted. *)
let run d clock next_id reval = function
  | Reset ->
    d.reset_stats ();
    reval := (0, 0)
  | Base cmd -> (
    let step k = clock := !clock +. float_of_int k in
    match cmd with
    | R.Packets (k, fs) ->
      step k;
      let b = Batch.create ~capacity:(List.length fs) in
      List.iter (fun f -> Batch.push b f ~pkt_len:64) fs;
      d.process_batch b ~now:!clock
    | R.Install (pattern, priority) ->
      incr next_id;
      d.install_rules
        [ Rule.make ~priority ~pattern ~action:(Action.Output !next_id) () ]
    | R.Remove ->
      let removed = ref false in
      ignore
        (d.remove_rules (fun r ->
             if !removed || r.Rule.priority = 0 then false
             else begin
               removed := true;
               true
             end))
    | R.Flush -> d.flush ()
    | R.Service k ->
      step k;
      ignore (d.service_upcalls ~now:!clock)
    | R.Revalidate k ->
      step k;
      let calls, evicted = !reval in
      reval := (calls + 1, evicted + d.revalidate ~now:!clock))

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let check d after (calls, evicted) =
  let fail fmt = QCheck2.Test.fail_reportf ("after %s: " ^^ fmt) after in
  List.iteri
    (fun i m ->
      let counters, gauges = d.named i in
      if Metrics.counters m <> counters then
        fail "shard %d registry counters [%s], accessors [%s]" i
          (String.concat "; "
             (List.map (fun (n, v) -> Printf.sprintf "%s %d" n v)
                (Metrics.counters m)))
          (String.concat "; "
             (List.map (fun (n, v) -> Printf.sprintf "%s %d" n v) counters));
      if Metrics.gauges m <> gauges then fail "shard %d registry gauges" i)
    d.registries;
  let st = d.stats () in
  let reg name =
    sum
      (fun m -> Option.value ~default:0 (Metrics.find_counter m name))
      d.registries
  in
  let agree what = function
    | [] -> ()
    | (src0, v0) :: views ->
      List.iter
        (fun (src, v) ->
          if v <> v0 then fail "%s: %s %d, %s %d" what src0 v0 src v)
        views
  in
  let ports =
    if d.prov = [] then []
    else
      [ ( "ports",
          sum
            (fun (p : Provenance.port_row) -> p.Provenance.p_packets)
            (Provenance.report d.prov).Provenance.ports ) ]
  in
  agree "packets"
    ([ ("stats", st.Dataplane.packets); ("registry", reg "packets") ] @ ports);
  agree "emc hits"
    [ ("stats", st.Dataplane.emc_hits); ("registry", reg "emc_hit") ];
  agree "upcalls"
    [ ("stats", st.Dataplane.upcalls); ("registry", reg "upcall") ];
  agree "upcall drops"
    [ ("stats", st.Dataplane.upcall_drops); ("registry", reg "upcall_drops") ];
  match d.perf with
  | [] -> ()
  | p :: ps ->
    let merged = List.fold_left Perf.merge p ps in
    let c = Perf.counts merged in
    let charged = d.charged () and priced = Perf.total_cycles merged in
    if Float.abs (priced -. charged) > 1e-9 *. Float.max 1. (Float.abs charged)
    then fail "stage sum %.17g, charged %.17g" priced charged;
    agree "batches" [ ("pmd", d.n_batches ()); ("perf", c.Perf.batches) ];
    List.iteri
      (fun i p ->
        agree
          (Printf.sprintf "shard %d revalidations" i)
          [ ("calls", calls); ("perf", (Perf.counts p).Perf.reval_sweeps) ])
      d.perf;
    agree "revalidation evictions"
      [ ("calls", evicted); ("perf", c.Perf.reval_evicted) ]

let prop c =
  let d = make c in
  d.install_rules
    [ Rule.make ~priority:0 ~pattern:Pattern.any ~action:Action.Drop () ];
  let clock = ref 0. and next_id = ref 0 and reval = ref (0, 0) in
  List.iteri
    (fun k cmd ->
      run d clock next_id reval cmd;
      check d
        (Printf.sprintf "command %d (%s)" k
           (match cmd with Base b -> R.show_cmd b | Reset -> "reset"))
        !reval)
    c.cmds;
  true

let prop_views =
  QCheck2.Test.make ~count:300 ~print:show
    ~name:"every view of a count agrees, resets included" gen_case prop

(* Burst, reset, the same burst: every view reads the second burst
   alone. Before the registry read the datapath's fields it kept
   counting through the reset (packets 16 against [n_processed] 8). *)
let test_reset_between_bursts () =
  let metrics = Metrics.create () in
  let pmd =
    Pmd.create ~telemetry:(Pi_telemetry.Ctx.v ~metrics ())
      (Pi_pkt.Prng.create 3L) ()
  in
  Pmd.install_rules pmd
    [ Rule.make ~priority:0 ~pattern:Pattern.any ~action:Action.Drop () ];
  let burst now =
    let b = Batch.create ~capacity:8 in
    for i = 0 to 7 do
      Batch.push b
        (Flow.make ~ip_src:(Int32.of_int (i land 3)) ~tp_dst:80 ())
        ~pkt_len:64
    done;
    Pmd.process_batch pmd b ~now
  in
  burst 0.;
  Pmd.reset_stats pmd;
  burst 1.;
  let dp = Pmd.shard pmd 0 in
  let c name = Option.value ~default:(-1) (Metrics.find_counter metrics name) in
  Alcotest.(check int) "n_processed" 8 (Datapath.n_processed dp);
  Alcotest.(check int) "registry packets" 8 (c "packets");
  Alcotest.(check int) "registry mf_hit = Megaflow.hits"
    (Megaflow.hits (Datapath.megaflow dp))
    (c "mf_hit");
  Alcotest.(check int) "registry emc_hit = Emc.hits"
    (Emc.hits (Datapath.emc dp))
    (c "emc_hit")

(* The counting half of [upcall_batch ≡ k upcalls]: a deferred datapath
   drains k queued misses through one [Slowpath.upcall_batch] and counts
   exactly what k sequential [Slowpath.upcall]s would: k upcalls and
   their summed probes, in its fields and so in its registry. *)
let prop_batch_counts =
  let to_action = function
    | "a" -> Action.Output 1
    | "b" -> Action.Output 2
    | _ -> Action.Drop
  in
  Helpers.qtest ~count:200 "upcall_batch counts as k upcalls"
    QCheck2.Gen.(
      pair Helpers.gen_rules (list_size (int_range 1 40) Helpers.gen_small_flow))
    (fun (rules, flows) ->
      let rules =
        List.map
          (fun (r : string Rule.t) ->
            Rule.make ~priority:r.Rule.priority ~pattern:r.Rule.pattern
              ~action:(to_action r.Rule.action) ())
          rules
      in
      let k = List.length flows in
      let metrics = Metrics.create () in
      let dp =
        Datapath.create
          ~config:
            { Datapath.default_config with
              Datapath.upcall_queue = Upcall_queue.bounded 64 }
          ~telemetry:(Pi_telemetry.Ctx.v ~metrics ())
          (Pi_pkt.Prng.create 7L) ()
      in
      Datapath.install_rules dp rules;
      let b = Batch.create ~capacity:k in
      List.iter (fun f -> Batch.push b f ~pkt_len:64) flows;
      Datapath.process_batch dp b ~now:0.;
      let serviced = Datapath.service_upcalls dp ~now:0. in
      let sp = Slowpath.create () in
      Slowpath.install sp rules;
      let probes =
        sum (fun f -> (Slowpath.upcall sp f).Slowpath.probes) flows
      in
      let c name = Metrics.find_counter metrics name in
      serviced = k
      && Datapath.n_upcalls dp = k
      && Datapath.n_slow_probes dp = probes
      && c "upcall" = Some k
      && c "slow_probes" = Some probes)

let suite =
  [ Alcotest.test_case "reset between bursts: registry follows" `Quick
      test_reset_between_bursts;
    prop_batch_counts;
    QCheck_alcotest.to_alcotest prop_views ]
