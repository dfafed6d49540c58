open Pi_classifier

type t = {
  cls : Action.t Tss.t;
  mutable bs : Action.t Tss.batch;
      (* Reusable subtable-major batch scratch for {!upcall_batch};
         grown geometrically on demand. *)
  one_flow : Flow.t array;
      (* One-slot flow scratch: {!upcall} is a batch of one. *)
  mutable revision : int;
}

(* The scratch's initial capacity, and the most {!classify} fills: the
   datapath classifies its misses in chunks of this many. *)
let chunk = 8

let create ?config () =
  let cls =
    match config with
    | Some c -> Tss.create ~config:c ()
    | None -> Tss.create ()
  in
  { cls; bs = Tss.batch ~capacity:chunk; one_flow = [| Flow.make () |];
    revision = 0 }

let config t = Tss.config t.cls

let install t rules =
  List.iter (Tss.insert t.cls) rules;
  if rules <> [] then t.revision <- t.revision + 1

let remove t pred =
  let n = Tss.remove t.cls pred in
  if n > 0 then t.revision <- t.revision + 1;
  n

let clear t = ignore (remove t (fun _ -> true))

type verdict = {
  action : Action.t;
  megaflow : Mask.t;
  probes : int;
  rule_found : bool;
  rule_seq : int;
}

let no_verdict =
  { action = Action.Drop; megaflow = Mask.empty; probes = 0;
    rule_found = false; rule_seq = Provenance.no_rule }

let classify t flows ~idx ~n =
  if n > chunk then invalid_arg "Slowpath.classify: n > chunk";
  Tss.find_wc_batch t.cls t.bs flows ~idx ~n

let slot_probes t j = Tss.batch_probes t.bs j
let slot_megaflow t j = Tss.batch_megaflow_borrowed t.bs j

let slot_action t j =
  match Tss.batch_rule t.bs j with
  | Some rule -> rule.Rule.action
  | None -> Action.Drop

let slot_rule_seq t j =
  match Tss.batch_rule t.bs j with
  | Some rule -> rule.Rule.seq
  | None -> Provenance.no_rule

(* Slot [j]'s verdict from the last classifier walk, frozen: the record
   and its mask outlive the scratch. *)
let verdict t j =
  { action = slot_action t j;
    megaflow = Tss.batch_megaflow t.bs j;
    probes = slot_probes t j;
    rule_found = Option.is_some (Tss.batch_rule t.bs j);
    rule_seq = slot_rule_seq t j }

(* Classify the whole miss set subtable-major ({!Tss.find_wc_batch}),
   then build the verdicts in packet order. The classifier is read-only
   during the walk and each slot's result depends only on its own flow,
   so the results are bit-for-bit those of [n] sequential {!upcall}
   calls. *)
let upcall_batch t flows ~idx ~n ~out =
  if Tss.batch_capacity t.bs < n then
    t.bs <- Tss.batch ~capacity:(max n (2 * Tss.batch_capacity t.bs));
  Tss.find_wc_batch t.cls t.bs flows ~idx ~n;
  for j = 0 to n - 1 do
    out.(j) <- verdict t j
  done

let one_idx = [| 0 |]

(* A batch of one: the scratch always holds at least one slot. *)
let upcall t flow =
  t.one_flow.(0) <- flow;
  Tss.find_wc_batch t.cls t.bs t.one_flow ~idx:one_idx ~n:1;
  verdict t 0

let revision t = t.revision
let n_rules t = Tss.n_rules t.cls
let n_subtables t = Tss.n_subtables t.cls
let rules t = Tss.rules t.cls
