(* The revalidator against its specification. Random command sequences
   drive a one-shard [Pmd]: bursts at random clock values (some moving
   backwards), rule installs and removals, megaflow flushes, handler
   drains in deferred mode, and revalidations, with a flow limit small
   enough in part of the cases that inserts evict LRU entries.

   [Datapath.revalidate] may skip its megaflow sweep, and its EMC sweep,
   when it can prove they would change nothing. The specification says
   what a sweep must do, whatever it skips:
   - it evicts exactly the entries that are idle ([now - last_used >
     idle_timeout]) or carry an old slow-path revision, read from
     [Megaflow.entries] just before the call, and returns their count;
   - every survivor is fresh and carries the current revision;
   - no EMC value is left pointing at a dead megaflow, so a further
     [Emc.invalidate_if] removes nothing. *)

open Pi_ovs
open Pi_classifier

type cmd =
  | Packets of int * Flow.t list  (* clock step, burst *)
  | Install of Pattern.t * int
  | Remove
  | Flush
  | Service of int
  | Revalidate of int

type case = {
  deferred : bool;
  max_entries : int;
  inv_prob : int;
  batch_size : int;
  cmds : cmd list;
}

let idle_timeout = 10.

let show_cmd = function
  | Packets (d, fs) ->
    Printf.sprintf "packets %+d [%s]" d
      (String.concat "; " (List.map (Format.asprintf "%a" Flow.pp) fs))
  | Install (p, prio) -> Format.asprintf "install %a prio %d" Pattern.pp p prio
  | Remove -> "remove"
  | Flush -> "flush"
  | Service d -> Printf.sprintf "service %+d" d
  | Revalidate d -> Printf.sprintf "revalidate %+d" d

let show c =
  Printf.sprintf "deferred:%b max_entries:%d inv_prob:%d batch:%d\n%s"
    c.deferred c.max_entries c.inv_prob c.batch_size
    (String.concat "\n" (List.map show_cmd c.cmds))

(* Clock steps around the idle timeout, so entries go idle, stay just
   fresh ([now - last_used = idle_timeout] exactly), and are hit at a
   time earlier than their insert. *)
let gen_step = QCheck2.Gen.int_range (-12) 12

let gen_cmd =
  let open QCheck2.Gen in
  frequency
    [ (5, map2 (fun d fs -> Packets (d, fs)) gen_step
           (list_size (int_range 1 6) Helpers.gen_small_flow));
      (1, map2 (fun p prio -> Install (p, prio)) Helpers.gen_small_pattern
           (int_range 1 8));
      (1, return Remove);
      (1, return Flush);
      (1, map (fun d -> Service d) gen_step);
      (3, map (fun d -> Revalidate d) gen_step) ]

let gen_case =
  let open QCheck2.Gen in
  let* deferred = bool in
  let* max_entries = oneofl [ 3; 5; 200_000 ] in
  let* inv_prob = oneofl [ 1; 2 ] in
  let* batch_size = int_range 1 8 in
  let* cmds = list_size (int_range 5 40) gen_cmd in
  return { deferred; max_entries; inv_prob; batch_size; cmds }

let prop c =
  let dp_config =
    { Datapath.default_config with
      Datapath.emc_insert_inv_prob = c.inv_prob;
      megaflow = { Megaflow.max_entries = c.max_entries; idle_timeout };
      upcall_queue =
        (if c.deferred then Upcall_queue.bounded ~handler_budget:4 16
         else Upcall_queue.default_config) }
  in
  let pmd =
    Pmd.create
      ~config:
        { Pmd.default_config with
          Pmd.n_shards = 1; batch_size = c.batch_size; parallel = false;
          dp = dp_config }
      (Pi_pkt.Prng.create 5L) ()
  in
  let dp = Pmd.shard pmd 0 in
  let mf = Datapath.megaflow dp in
  Pmd.install_rules pmd
    [ Rule.make ~priority:0 ~pattern:Pattern.any ~action:Action.Drop () ];
  let clock = ref 0. in
  let next_id = ref 0 in
  let step d = clock := !clock +. float_of_int d in
  let idle now (e : Megaflow.entry) =
    now -. e.Megaflow.last_used > idle_timeout
  in
  let run = function
    | Packets (d, fs) ->
      step d;
      let b = Batch.create ~capacity:(List.length fs) in
      List.iter (fun f -> Batch.push b f ~pkt_len:64) fs;
      Pmd.process_batch pmd b ~now:!clock
    | Install (pattern, priority) ->
      incr next_id;
      Pmd.install_rules pmd
        [ Rule.make ~priority ~pattern ~action:(Action.Output !next_id) () ]
    | Remove ->
      let removed = ref false in
      ignore
        (Pmd.remove_rules pmd (fun r ->
             if !removed || r.Rule.priority = 0 then false
             else begin
               removed := true;
               true
             end))
    | Flush -> Megaflow.flush mf
    | Service d ->
      step d;
      ignore (Pmd.service_upcalls pmd ~now:!clock)
    | Revalidate d ->
      step d;
      let now = !clock in
      let rev = Slowpath.revision (Datapath.slowpath dp) in
      let stale (e : Megaflow.entry) = idle now e || e.Megaflow.revision <> rev in
      let expected = List.length (List.filter stale (Megaflow.entries mf)) in
      let evicted = Pmd.revalidate pmd ~now in
      if evicted <> expected then
        QCheck2.Test.fail_reportf "revalidate at %g evicted %d, expected %d" now
          evicted expected;
      (match List.find_opt stale (Megaflow.entries mf) with
       | Some e ->
         QCheck2.Test.fail_reportf
           "survivor at %g: last_used %g revision %d (current %d)" now
           e.Megaflow.last_used e.Megaflow.revision rev
       | None -> ());
      let dead =
        Emc.invalidate_if (Datapath.emc dp) (fun e -> not e.Megaflow.alive)
      in
      if dead > 0 then
        QCheck2.Test.fail_reportf "revalidate at %g left %d dead EMC values" now
          dead
  in
  List.iter run c.cmds;
  true

let prop_revalidate =
  QCheck2.Test.make ~count:500 ~print:show
    ~name:"revalidate evicts exactly the idle and stale entries" gen_case prop

let suite = [ QCheck_alcotest.to_alcotest prop_revalidate ]
