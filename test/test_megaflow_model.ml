(* Model-based test of the megaflow cache: random command sequences run
   against [Megaflow] and against a list-based reference, compared after
   every step. The commands push subtables through 0 -> 1 -> 2 -> 1 -> 0
   entries, so a singleton (table-less) subtable is created, promoted to
   a hashed one, demoted again and dropped, with lookups in between.

   The reference is the cache's specification:
   - masks are scanned in creation order; a mask disappears with its
     last entry and a re-created one goes to the back;
   - a lookup returns the entry of the first mask whose masked key
     equals the flow's, having paid one probe per mask up to it (all of
     them on a miss), and stamps the entry with the lookup time;
   - an insert at the flow limit first evicts the [max 1 (n / 20)]
     least-recently-used entries, then replaces any entry with the same
     masked key under the same mask.
   Every operation runs at its own clock tick, so no two entries share
   a [last_used] stamp and the LRU victims are unambiguous. Each entry
   carries a unique [Output id] action, which identifies it. *)

open Pi_ovs
open Pi_classifier

type rentry = {
  r_key : Flow.t;  (* masked *)
  r_mask : Mask.t;
  r_id : int;
  r_rev : int;
  mutable r_used : float;
}

type model = {
  mutable masks : Mask.t list;      (* scan order *)
  mutable entries : rentry list;
  mutable next_id : int;
  mutable clock : float;
}

let idle_timeout = 20.

(* Small value pools, so keys collide under the coarse masks (several
   entries per subtable) and overlap across masks. *)
let ip_srcs = [| 0x0A000000; 0x0A000001; 0x0A000100; 0x0A010000; 0x0B000000 |]
let tp_dsts = [| 80; 443; 8080 |]
let tp_srcs = [| 1000; 2000 |]

(* 20 masks: an ip_src prefix of 0/8/16/24/32 bits, with or without an
   exact tp_dst and tp_src. The all-wildcard mask is among them. *)
let mask_pool =
  Array.of_list
    (List.concat_map
       (fun len ->
         List.concat_map
           (fun dst ->
             List.map
               (fun src ->
                 let m = Mask.with_prefix Mask.empty Field.Ip_src len in
                 let m = if dst then Mask.with_exact m Field.Tp_dst else m in
                 if src then Mask.with_exact m Field.Tp_src else m)
               [ false; true ])
           [ false; true ])
       [ 0; 8; 16; 24; 32 ])

let mk_flow (s, d, p) =
  Flow.make ~ip_src:(Int32.of_int ip_srcs.(s)) ~tp_dst:tp_dsts.(d)
    ~tp_src:tp_srcs.(p) ()

type cmd =
  | Insert of int * (int * int * int) * int   (* mask, flow, revision *)
  | Reinsert of int                            (* the i-th live entry *)
  | Drop_revision of int                       (* revalidate ~keep *)
  | Expire of int                              (* advance, revalidate *)
  | Flush
  | Probe of (int * int * int) list

let pp_cmd = function
  | Insert (m, (s, d, p), r) ->
    Format.asprintf "insert %a key(%d,%d,%d) rev %d" Mask.pp mask_pool.(m) s
      d p r
  | Reinsert i -> Printf.sprintf "reinsert #%d" i
  | Drop_revision r -> Printf.sprintf "revalidate keep rev<>%d" r
  | Expire dt -> Printf.sprintf "expire +%ds" dt
  | Flush -> "flush"
  | Probe fl -> Printf.sprintf "probe %d flows" (List.length fl)

let gen_flow_ix =
  QCheck2.Gen.(
    triple
      (int_bound (Array.length ip_srcs - 1))
      (int_bound (Array.length tp_dsts - 1))
      (int_bound (Array.length tp_srcs - 1)))

let gen_cmd =
  let open QCheck2.Gen in
  frequency
    [ ( 8,
        map3
          (fun m f r -> Insert (m, f, r))
          (int_bound (Array.length mask_pool - 1))
          gen_flow_ix (int_bound 2) );
      (3, map (fun i -> Reinsert i) (int_bound 63));
      (2, map (fun r -> Drop_revision r) (int_bound 2));
      (2, map (fun dt -> Expire dt) (int_bound 30));
      (1, return Flush);
      (2, map (fun fl -> Probe fl) (list_size (int_range 1 6) gen_flow_ix)) ]

(* --- Reference ------------------------------------------------------ *)

let tick m =
  m.clock <- m.clock +. 1.;
  m.clock

let drop_empty_masks m =
  m.masks <-
    List.filter
      (fun mask -> List.exists (fun e -> Mask.equal e.r_mask mask) m.entries)
      m.masks

let remove_where m p =
  m.entries <- List.filter (fun e -> not (p e)) m.entries;
  drop_empty_masks m

let model_insert m ~max_entries ~mask ~key ~rev ~now =
  let n = List.length m.entries in
  if n >= max_entries then begin
    let k = max 1 (n / 20) in
    let victims =
      List.filteri
        (fun i _ -> i < k)
        (List.sort (fun a b -> Float.compare a.r_used b.r_used) m.entries)
    in
    remove_where m (fun e -> List.memq e victims)
  end;
  let key = Mask.apply mask key in
  if not (List.exists (Mask.equal mask) m.masks) then
    m.masks <- m.masks @ [ mask ];
  m.entries <-
    List.filter
      (fun e -> not (Mask.equal e.r_mask mask && Flow.equal e.r_key key))
      m.entries
    @ [ { r_key = key; r_mask = mask; r_id = m.next_id; r_rev = rev;
          r_used = now } ];
  m.next_id <- m.next_id + 1

(* (entry, probes, subtable index) of a lookup, without side effects. *)
let model_find m flow =
  let rec go i = function
    | [] -> (None, List.length m.masks, -1)
    | mask :: rest -> (
      let key = Mask.apply mask flow in
      match
        List.find_opt
          (fun e -> Mask.equal e.r_mask mask && Flow.equal e.r_key key)
          m.entries
      with
      | Some e -> (Some e, i + 1, i)
      | None -> go (i + 1) rest)
  in
  go 0 m.masks

(* --- Comparison ----------------------------------------------------- *)

let id_of (e : Megaflow.entry) =
  match e.Megaflow.action with
  | Action.Output id -> id
  | a -> QCheck2.Test.fail_reportf "unexpected action %s" (Action.to_string a)

let show = function None -> "miss" | Some id -> Printf.sprintf "#%d" id

let check_same what ~got ~want =
  if got <> want then
    QCheck2.Test.fail_reportf "%s: got %s, want %s" what (show got)
      (show want)

let check_int what ~got ~want =
  if got <> want then
    QCheck2.Test.fail_reportf "%s: got %d, want %d" what got want

let singleton_capacity = Flat_tbl.capacity (Flat_tbl.create ())

let check_shape mf m =
  check_int "n_masks" ~got:(Megaflow.n_masks mf) ~want:(List.length m.masks);
  check_int "n_entries" ~got:(Megaflow.n_entries mf)
    ~want:(List.length m.entries);
  let stats = Megaflow.subtable_stats mf in
  List.iteri
    (fun i (s, mask) ->
      if not (Mask.equal s.Megaflow.ms_mask mask) then
        QCheck2.Test.fail_reportf "subtable %d: mask %a, want %a" i Mask.pp
          s.Megaflow.ms_mask Mask.pp mask;
      let n =
        List.length
          (List.filter (fun e -> Mask.equal e.r_mask mask) m.entries)
      in
      check_int "ms_entries" ~got:s.Megaflow.ms_entries ~want:n;
      (* a singleton reports what a one-entry minimum-capacity table
         does: its entry in its home slot *)
      if n = 1
         && (s.Megaflow.ms_capacity <> singleton_capacity
             || s.Megaflow.ms_mean_probe <> 1.
             || s.Megaflow.ms_max_probe <> 1)
      then
        QCheck2.Test.fail_reportf
          "singleton subtable %d: capacity %d, probe %.2f/%d" i
          s.Megaflow.ms_capacity s.Megaflow.ms_mean_probe
          s.Megaflow.ms_max_probe)
    (List.combine stats m.masks)

(* The batch walk and the per-packet lookup, each against the
   reference on the same state. Both stamp hit entries, one clock tick
   per packet, like the reference. *)
let check_lookups mf m flows =
  let flows = Array.of_list flows in
  let n = Array.length flows in
  let idx = Array.init n Fun.id in
  let out_entry = Array.make n None in
  let out_probes = Array.make n 0 in
  let out_tbl = Array.make n 0 in
  Megaflow.walk_batch mf flows ~idx ~n ~out_entry ~out_probes ~out_tbl;
  let stats = Megaflow.lookup_stats () in
  Array.iteri
    (fun j flow ->
      let want, probes, tbl = model_find m flow in
      let want_id = Option.map (fun e -> e.r_id) want in
      check_same "walk_batch entry" ~got:(Option.map id_of out_entry.(j))
        ~want:want_id;
      check_int "walk_batch probes" ~got:out_probes.(j) ~want:probes;
      check_int "walk_batch subtable" ~got:out_tbl.(j) ~want:tbl;
      let now = tick m in
      Megaflow.commit_walk mf stats out_entry.(j) ~now ~pkt_len:64
        ~probes:out_probes.(j) ~tbl:out_tbl.(j);
      Option.iter (fun e -> e.r_used <- now) want)
    flows;
  Array.iter
    (fun flow ->
      let want, probes, _ = model_find m flow in
      let now = tick m in
      let got = Megaflow.lookup_s mf stats flow ~now ~pkt_len:64 in
      check_same "lookup entry" ~got:(Option.map id_of got)
        ~want:(Option.map (fun e -> e.r_id) want);
      check_int "lookup probes" ~got:stats.Megaflow.s_probes ~want:probes;
      Option.iter (fun e -> e.r_used <- now) want)
    flows

let step mf m ~max_entries cmd =
  let probe_flows = ref [] in
  (match cmd with
   | Insert (mi, f, rev) ->
     let mask = mask_pool.(mi) and key = mk_flow f in
     let now = tick m in
     ignore
       (Megaflow.insert mf ~key ~mask ~action:(Action.Output m.next_id)
          ~revision:rev ~now ());
     model_insert m ~max_entries ~mask ~key ~rev ~now
   | Reinsert i -> (
     match List.nth_opt m.entries (i mod max 1 (List.length m.entries)) with
     | Some e ->
       let now = tick m in
       let rev = (e.r_rev + 1) mod 3 in
       ignore
         (Megaflow.insert mf ~key:e.r_key ~mask:e.r_mask
            ~action:(Action.Output m.next_id) ~revision:rev ~now ());
       model_insert m ~max_entries ~mask:e.r_mask ~key:e.r_key ~rev ~now
     | None -> ())
   | Drop_revision r ->
     let now = tick m in
     ignore
       (Megaflow.revalidate mf ~now
          ~keep:(fun e -> e.Megaflow.revision <> r)
          ());
     remove_where m (fun e -> now -. e.r_used > idle_timeout || e.r_rev = r)
   | Expire dt ->
     m.clock <- m.clock +. float_of_int dt;
     let now = tick m in
     ignore (Megaflow.revalidate mf ~now ());
     remove_where m (fun e -> now -. e.r_used > idle_timeout)
   | Flush ->
     Megaflow.flush mf;
     m.masks <- [];
     m.entries <- []
   | Probe fl -> probe_flows := List.map mk_flow fl);
  check_shape mf m;
  (* every live key (a hit somewhere, maybe under an earlier
     overlapping mask) plus the command's own flows *)
  check_lookups mf m (List.map (fun e -> e.r_key) m.entries @ !probe_flows)

let gen_case =
  QCheck2.Gen.(
    pair (oneofl [ 3; 6; 64 ]) (list_size (int_range 1 40) gen_cmd))

let print_case (max_entries, cmds) =
  Printf.sprintf "max_entries %d:\n  %s" max_entries
    (String.concat "\n  " (List.map pp_cmd cmds))

let prop_model =
  QCheck2.Test.make ~count:300 ~print:print_case
    ~name:"megaflow = list reference across subtable size transitions"
    gen_case
    (fun (max_entries, cmds) ->
      let mf =
        Megaflow.create ~config:{ Megaflow.max_entries; idle_timeout } ()
      in
      let m = { masks = []; entries = []; next_id = 0; clock = 0. } in
      List.iter (step mf m ~max_entries) cmds;
      true)

(* The transitions the property relies on, pinned once by hand: a
   subtable goes 0 -> 1 -> 2 -> 1 -> 0 and stays exact throughout. *)
let test_transitions () =
  let mask = mask_pool.(4) (* ip_src/8 *) in
  let mf =
    Megaflow.create
      ~config:{ Megaflow.max_entries = 100; idle_timeout = 1e9 } ()
  in
  let ins key rev =
    ignore
      (Megaflow.insert mf ~key ~mask ~action:(Action.Output rev) ~revision:rev
         ~now:0. ())
  in
  let a = mk_flow (0, 0, 0) and b = mk_flow (4, 0, 0) in
  let hit flow = Option.map id_of (Megaflow.lookup mf flow ~now:0. ~pkt_len:1) in
  let entries () =
    match Megaflow.subtable_stats mf with
    | [ s ] -> s.Megaflow.ms_entries
    | [] -> 0
    | _ -> Alcotest.fail "expected a single mask"
  in
  ins a 0;
  Alcotest.(check int) "one entry" 1 (entries ());
  Alcotest.(check (option int)) "singleton hit" (Some 0) (hit a);
  Alcotest.(check (option int)) "singleton miss" None (hit b);
  ins b 1;
  Alcotest.(check int) "two entries" 2 (entries ());
  Alcotest.(check (option int)) "hashed hit a" (Some 0) (hit a);
  Alcotest.(check (option int)) "hashed hit b" (Some 1) (hit b);
  ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision <> 0) ());
  Alcotest.(check int) "back to one" 1 (entries ());
  Alcotest.(check (option int)) "survivor hit" (Some 1) (hit b);
  Alcotest.(check (option int)) "evicted miss" None (hit a);
  ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun _ -> false) ());
  Alcotest.(check int) "no subtable" 0 (Megaflow.n_masks mf);
  Alcotest.(check (option int)) "empty miss" None (hit b)

(* A hashed subtable hashes its keys exactly as [Mask.hash_masked_on]
   does, so its table layout — and the occupancy and probe lengths
   [dpctl dump-masks] prints — is that of a [Flat_tbl] filled with those
   hashes in insertion order. *)
let prop_hash_layout =
  QCheck2.Test.make ~count:200
    ~name:"hashed subtable layout = Flat_tbl over Mask.hash_masked_on"
    QCheck2.Gen.(
      pair
        (int_bound (Array.length mask_pool - 1))
        (list_size (int_range 2 40) (pair (int_bound 255) gen_flow_ix)))
    (fun (mi, keys) ->
      let mask = mask_pool.(mi) in
      let mf = Megaflow.create () in
      let reference = Flat_tbl.create () in
      let seen = ref [] in
      List.iter
        (fun (low, f) ->
          let s, d, p = f in
          let key =
            Flow.make ~ip_src:(Int32.of_int (ip_srcs.(s) lor low))
              ~tp_dst:tp_dsts.(d) ~tp_src:tp_srcs.(p) ()
          in
          let masked = Mask.apply mask key in
          (* distinct keys only: a replacement re-hashes its slot *)
          if not (List.exists (Flow.equal masked) !seen) then begin
            seen := masked :: !seen;
            Flat_tbl.add reference
              (Mask.hash_masked_on (Mask.support mask) mask key)
              0;
            ignore
              (Megaflow.insert mf ~key ~mask ~action:Action.Drop ~revision:0
                 ~now:0. ())
          end)
        keys;
      match Megaflow.subtable_stats mf with
      | [ s ] when List.length !seen >= 2 ->
        s.Megaflow.ms_capacity = Flat_tbl.capacity reference
        && (s.Megaflow.ms_mean_probe, s.Megaflow.ms_max_probe)
           = Flat_tbl.probe_stats reference
      | [ s ] -> s.Megaflow.ms_entries = 1
      | _ -> false)

let suite =
  [ Alcotest.test_case "singleton transitions" `Quick test_transitions;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_hash_layout ]
