(* Model-based test of the megaflow cache: random command sequences run
   against [Megaflow] and against a list-based reference, compared after
   every step, with [Megaflow.check] asserting the cache's own structural
   invariants after every command. The commands push subtables through
   0 -> 1 -> 2 -> 1 -> 0 entries, so a singleton (table-less) subtable is
   created, promoted to a hashed one, demoted again and dropped, with
   lookups in between. Bulk mints grow the scan past many blocks of 32
   subtables and, in part of the cases, past two groups of 256, so
   revalidation, LRU eviction and [resort_by_hits] move subtables across
   block and group boundaries.

   The reference is the cache's specification:
   - masks are scanned in creation order; a mask disappears with its
     last entry and a re-created one goes to the back;
   - a lookup returns the entry of the first mask whose masked key
     equals the flow's, having paid one probe per mask up to it (all of
     them on a miss), and stamps the entry with the lookup time;
   - a hit counts against its mask; a resort stably orders the masks by
     descending hit count, then halves every count;
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

type rmask = { rm_mask : Mask.t; mutable rm_hits : int }

(* Entries indexed by (mask, masked key), which identifies at most one. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Mask.t * Flow.t

  let equal (m, k) (m', k') = Mask.equal m m' && Flow.equal k k'
  let hash (m, k) = Hashtbl.hash (Mask.hash m, Flow.hash k)
end)

type model = {
  mutable masks : rmask list;       (* scan order *)
  mutable entries : rentry list;    (* insertion order *)
  index : rentry Key_tbl.t;         (* the same entries, by key *)
  mutable next_id : int;
  mutable clock : float;
}

(* Larger than any run's own clock advance, so entries only go idle
   when [Expire] moves the clock past them. *)
let idle_timeout = 1e6

(* Small value pools, so keys collide under the coarse masks (several
   entries per subtable) and overlap across masks. *)
let ip_srcs = [| 0x0A000000; 0x0A000001; 0x0A000100; 0x0A010000; 0x0B000000 |]
let tp_dsts = [| 80; 443; 8080 |]
let tp_srcs = [| 1000; 2000 |]
let ip_dsts = [| 0; 0x0A0A0001; 0x0A0A0002 |]

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

(* 1122 masks for bulk mints: an exact ip_dst, as on every covert
   megaflow, with an ip_src prefix of 0..32, a tp_dst prefix of 0..16
   bits and tp_src wildcarded or exact. A mint pins one ip_dst for all
   its keys, so the blocks and groups it fills summarise to that ip_dst
   and a probe for another one skips them. *)
let mint_pool =
  Array.init (33 * 17 * 2) (fun j ->
      let m = Mask.with_exact Mask.empty Field.Ip_dst in
      let m = Mask.with_prefix m Field.Ip_src (j mod 33) in
      let m = Mask.with_prefix m Field.Tp_dst (j / 33 mod 17) in
      if j >= 33 * 17 then Mask.with_exact m Field.Tp_src else m)

let mk_flow (s, d, p, a) =
  Flow.make ~ip_src:(Int32.of_int ip_srcs.(s)) ~tp_dst:tp_dsts.(d)
    ~tp_src:tp_srcs.(p) ~ip_dst:(Int32.of_int ip_dsts.(a)) ()

type cmd =
  | Insert of int * (int * int * int * int) * int  (* mask, flow, revision *)
  | Mint of int * int * int        (* count, ip_dst, revision: fresh masks *)
  | Reinsert of int                            (* the i-th live entry *)
  | Drop_revision of int                       (* revalidate ~keep *)
  | Remint of int          (* revalidate all, re-mint the live, revision *)
  | Expire of int              (* idle out entries older than the i-th *)
  | Resort
  | Flush
  | Probe of (int * int * int * int) list

let pp_cmd = function
  | Insert (m, (s, d, p, a), r) ->
    Format.asprintf "insert %a key(%d,%d,%d,%d) rev %d" Mask.pp mask_pool.(m)
      s d p a r
  | Mint (k, a, r) -> Printf.sprintf "mint %d masks ip_dst #%d rev %d" k a r
  | Reinsert i -> Printf.sprintf "reinsert #%d" i
  | Drop_revision r -> Printf.sprintf "revalidate keep rev<>%d" r
  | Remint r -> Printf.sprintf "revalidate all, re-mint rev %d" r
  | Expire i -> Printf.sprintf "expire entries older than #%d" i
  | Resort -> "resort by hits"
  | Flush -> "flush"
  | Probe fl -> Printf.sprintf "probe %d flows" (List.length fl)

let gen_flow_ix =
  QCheck2.Gen.(
    map
      (fun ((s, d), (p, a)) -> (s, d, p, a))
      (pair
         (pair
            (int_bound (Array.length ip_srcs - 1))
            (int_bound (Array.length tp_dsts - 1)))
         (pair
            (int_bound (Array.length tp_srcs - 1))
            (int_bound (Array.length ip_dsts - 1)))))

(* Flush is rare and mints are large and common enough that a long
   sequence under a high flow limit reaches three groups. *)
let gen_cmd =
  let open QCheck2.Gen in
  frequency
    [ ( 24,
        map3
          (fun m f r -> Insert (m, f, r))
          (int_bound (Array.length mask_pool - 1))
          gen_flow_ix (int_bound 2) );
      ( 12,
        map3
          (fun k a r -> Mint (k, a, r))
          (int_range 32 256)
          (int_bound (Array.length ip_dsts - 1))
          (int_bound 2) );
      (9, map (fun i -> Reinsert i) (int_bound 63));
      (6, map (fun r -> Drop_revision r) (int_bound 2));
      (4, map (fun r -> Remint r) (int_bound 2));
      (6, map (fun i -> Expire i) (int_bound 255));
      (3, return Resort);
      (1, return Flush);
      (6, map (fun fl -> Probe fl) (list_size (int_range 1 6) gen_flow_ix)) ]

(* --- Reference ------------------------------------------------------ *)

let tick m =
  m.clock <- m.clock +. 1.;
  m.clock

(* Replace the entry list, re-index it and drop the masks left empty. *)
let set_entries m l =
  m.entries <- l;
  Key_tbl.reset m.index;
  List.iter (fun e -> Key_tbl.replace m.index (e.r_mask, e.r_key) e) l;
  let live = Tables.Mask_tbl.create 64 in
  List.iter (fun e -> Tables.Mask_tbl.replace live e.r_mask ()) l;
  m.masks <- List.filter (fun rm -> Tables.Mask_tbl.mem live rm.rm_mask) m.masks

let remove_where m p = set_entries m (List.filter (fun e -> not (p e)) m.entries)

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
  if not (List.exists (fun rm -> Mask.equal rm.rm_mask mask) m.masks) then
    m.masks <- m.masks @ [ { rm_mask = mask; rm_hits = 0 } ];
  (* a replacement keeps its mask non-empty, so only the index changes *)
  let kept =
    match Key_tbl.find_opt m.index (mask, key) with
    | Some old -> List.filter (fun e -> e != old) m.entries
    | None -> m.entries
  in
  let e =
    { r_key = key; r_mask = mask; r_id = m.next_id; r_rev = rev; r_used = now }
  in
  m.entries <- kept @ [ e ];
  Key_tbl.replace m.index (mask, key) e;
  m.next_id <- m.next_id + 1

(* (entry and its mask, probes, subtable index) of a lookup, without
   side effects. *)
let model_find m flow =
  let rec go i = function
    | [] -> (None, List.length m.masks, -1)
    | rm :: rest -> (
      match Key_tbl.find_opt m.index (rm.rm_mask, Mask.apply rm.rm_mask flow) with
      | Some e -> (Some (e, rm), i + 1, i)
      | None -> go (i + 1) rest)
  in
  go 0 m.masks

(* A hit stamps the entry and counts against its mask. *)
let model_hit now = function
  | Some (e, rm) ->
    e.r_used <- now;
    rm.rm_hits <- rm.rm_hits + 1
  | None -> ()

(* The first [k] masks of [mint_pool] not in use, searched from a
   rotating start so successive mints differ. *)
let fresh_masks m k =
  let n = Array.length mint_pool in
  let start = m.next_id mod n in
  let rec go acc got j =
    if got = k || j = n then List.rev acc
    else begin
      let mask = mint_pool.((start + j) mod n) in
      if List.exists (fun rm -> Mask.equal rm.rm_mask mask) m.masks then
        go acc got (j + 1)
      else go ((start + j) mod n :: acc) (got + 1) (j + 1)
    end
  in
  go [] 0 0

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
  (match Megaflow.check mf with
   | Ok () -> ()
   | Error msg -> QCheck2.Test.fail_reportf "Megaflow.check: %s" msg);
  check_int "n_masks" ~got:(Megaflow.n_masks mf) ~want:(List.length m.masks);
  check_int "n_entries" ~got:(Megaflow.n_entries mf)
    ~want:(List.length m.entries);
  let counts = Tables.Mask_tbl.create 64 in
  List.iter
    (fun e ->
      let c = Option.value ~default:0 (Tables.Mask_tbl.find_opt counts e.r_mask) in
      Tables.Mask_tbl.replace counts e.r_mask (c + 1))
    m.entries;
  let stats = Megaflow.subtable_stats mf in
  List.iteri
    (fun i (s, rm) ->
      if not (Mask.equal s.Megaflow.ms_mask rm.rm_mask) then
        QCheck2.Test.fail_reportf "subtable %d: mask %a, want %a" i Mask.pp
          s.Megaflow.ms_mask Mask.pp rm.rm_mask;
      let n =
        Option.value ~default:0 (Tables.Mask_tbl.find_opt counts rm.rm_mask)
      in
      check_int "ms_entries" ~got:s.Megaflow.ms_entries ~want:n;
      check_int "ms_hits" ~got:s.Megaflow.ms_hits ~want:rm.rm_hits;
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

(* A walk over the whole burst and one-packet walks (the sequential-scan
   kernel), each against the reference on the same state. Both stamp hit
   entries, one clock tick per packet, like the reference. *)
let check_lookups mf m flows =
  let flows = Array.of_list flows in
  let n = Array.length flows in
  let idx = Array.init n Fun.id in
  let out_entry = Array.make n None in
  let out_probes = Array.make n 0 in
  let out_tbl = Array.make n 0 in
  Megaflow.walk_batch mf flows ~idx ~n ~out_entry ~out_probes ~out_tbl;
  let stats = Megaflow.lookup_stats () in
  let id_of_hit = Option.map (fun (e, _) -> e.r_id) in
  Array.iteri
    (fun j flow ->
      let want, probes, tbl = model_find m flow in
      check_same "walk_batch entry" ~got:(Option.map id_of out_entry.(j))
        ~want:(id_of_hit want);
      check_int "walk_batch probes" ~got:out_probes.(j) ~want:probes;
      check_int "walk_batch subtable" ~got:out_tbl.(j) ~want:tbl;
      let now = tick m in
      Megaflow.commit_walk mf stats out_entry.(j) ~now ~pkt_len:64
        ~probes:out_probes.(j) ~tbl:out_tbl.(j);
      model_hit now want)
    flows;
  Array.iter
    (fun flow ->
      let want, probes, _ = model_find m flow in
      let now = tick m in
      let got = Helpers.mf_lookup ~stats mf flow ~now ~pkt_len:64 in
      check_same "lookup entry" ~got:(Option.map id_of got)
        ~want:(id_of_hit want);
      check_int "lookup probes" ~got:stats.Megaflow.s_probes ~want:probes;
      model_hit now want)
    flows

(* Up to 48 live keys, spread evenly over the insertion order: probing
   all of them at every step would make long sequences quadratic. *)
let sample_keys m =
  let n = List.length m.entries in
  let stride = max 1 ((n + 47) / 48) in
  List.filteri (fun i _ -> i mod stride = 0) m.entries
  |> List.map (fun e -> e.r_key)

(* Walk results taken before a command's inserts and patched after
   each one ({!Megaflow.patch_walk}), as the batch path does for the
   rest of a burst; after the command they must equal a fresh lookup. *)
type pending = {
  p_flows : Flow.t array;
  p_idx : int array;
  p_entry : Megaflow.entry option array;
  p_probes : int array;
  p_tbl : int array;
}

let walk_pending mf flows =
  let p_flows = Array.of_list flows in
  let n = Array.length p_flows in
  let p =
    { p_flows; p_idx = Array.init n Fun.id; p_entry = Array.make n None;
      p_probes = Array.make n 0; p_tbl = Array.make n 0 }
  in
  Megaflow.walk_batch mf p.p_flows ~idx:p.p_idx ~n ~out_entry:p.p_entry
    ~out_probes:p.p_probes ~out_tbl:p.p_tbl;
  p

let check_pending m p =
  Array.iteri
    (fun j flow ->
      let want, probes, tbl = model_find m flow in
      check_same "patched walk entry" ~got:(Option.map id_of p.p_entry.(j))
        ~want:(Option.map (fun (e, _) -> e.r_id) want);
      check_int "patched walk probes" ~got:p.p_probes.(j) ~want:probes;
      check_int "patched walk subtable" ~got:p.p_tbl.(j) ~want:tbl)
    p.p_flows

let insert_both mf m pending ~max_entries ~mask ~key ~rev =
  let now = tick m in
  ignore
    (Megaflow.insert mf ~key ~mask ~action:(Action.Output m.next_id)
       ~revision:rev ~now ());
  Megaflow.patch_walk mf pending.p_flows ~idx:pending.p_idx ~lo:0
    ~n:(Array.length pending.p_flows) ~out_entry:pending.p_entry
    ~out_probes:pending.p_probes ~out_tbl:pending.p_tbl;
  model_insert m ~max_entries ~mask ~key ~rev ~now

let mint_key a j =
  mk_flow (j mod Array.length ip_srcs, j mod Array.length tp_dsts, 0, a)

let step mf m ~max_entries cmd =
  let probe_flows = ref [] in
  let pending flows = walk_pending mf (sample_keys m @ flows) in
  (match cmd with
   | Insert (mi, f, rev) ->
     let p = pending [ mk_flow f ] in
     insert_both mf m p ~max_entries ~mask:mask_pool.(mi) ~key:(mk_flow f) ~rev;
     check_pending m p
   | Mint (k, a, rev) ->
     let fresh = fresh_masks m k in
     let p = pending (List.map (mint_key a) fresh) in
     List.iter
       (fun j ->
         insert_both mf m p ~max_entries ~mask:mint_pool.(j) ~key:(mint_key a j)
           ~rev)
       fresh;
     check_pending m p
   | Reinsert i -> (
     match List.nth_opt m.entries (i mod max 1 (List.length m.entries)) with
     | Some e ->
       let p = pending [ e.r_key ] in
       insert_both mf m p ~max_entries ~mask:e.r_mask ~key:e.r_key
         ~rev:((e.r_rev + 1) mod 3);
       check_pending m p
     | None -> ())
   | Drop_revision r ->
     let now = tick m in
     ignore
       (Megaflow.revalidate mf ~now
          ~keep:(fun e -> e.Megaflow.revision <> r)
          ());
     remove_where m (fun e -> now -. e.r_used > idle_timeout || e.r_rev = r)
   | Remint rev ->
     (* A mask-churn round: the sweep empties every subtable into the
        pool, and minting the same masks again takes each one back. A
        recycled subtable must look new: no hits, a fresh probe path. *)
     let live = m.entries in
     let now = tick m in
     ignore (Megaflow.revalidate mf ~now ~keep:(fun _ -> false) ());
     set_entries m [];
     check_shape mf m;
     let p = pending (List.map (fun e -> e.r_key) live) in
     List.iter
       (fun e ->
         insert_both mf m p ~max_entries ~mask:e.r_mask ~key:e.r_key ~rev)
       live;
     check_pending m p
   | Expire i ->
     (* move the clock so exactly the entries used before the i-th
        oldest stamp are idle *)
     (match List.sort Float.compare (List.map (fun e -> e.r_used) m.entries) with
      | [] -> ()
      | used ->
        let cut = List.nth used (i mod List.length used) in
        m.clock <- Float.max m.clock (cut +. idle_timeout -. 1.));
     let now = tick m in
     ignore (Megaflow.revalidate mf ~now ());
     remove_where m (fun e -> now -. e.r_used > idle_timeout)
   | Resort ->
     Megaflow.resort_by_hits mf;
     m.masks <-
       List.stable_sort (fun a b -> Int.compare b.rm_hits a.rm_hits) m.masks;
     List.iter (fun rm -> rm.rm_hits <- rm.rm_hits / 2) m.masks
   | Flush ->
     Megaflow.flush mf;
     set_entries m []
   | Probe fl -> probe_flows := List.map mk_flow fl);
  check_shape mf m;
  (* live keys (a hit somewhere, maybe under an earlier overlapping
     mask) plus the command's own flows *)
  check_lookups mf m (sample_keys m @ !probe_flows)

(* Shrinking replays the whole case for every candidate, and a replay
   costs what its bulk mints cost, so the cheap wins go first: every
   mint at once to half its size, then the command list by halves (the
   tail first: commands after the failing one never run), then one
   command at a time, anywhere in the list, then each mint alone halfway
   to the smallest. Other commands are not simplified: with the list
   already short that buys little, and the integrated shrinker, which
   did it for every command in turn, spent over a minute on one failing
   case. *)
let shrink_case (max_entries, cmds) =
  let halve = function
    | Mint (k, a, r) when k > 32 -> Mint (max 32 (k / 2), a, r)
    | c -> c
  in
  let halved = List.map halve cmds in
  let n = List.length cmds in
  let keep lo hi = List.filteri (fun i _ -> lo <= i && i < hi) cmds in
  let drop i = List.filteri (fun j _ -> j <> i) cmds in
  let case c = (max_entries, c) in
  let mints = if halved <> cmds then Seq.return (case halved) else Seq.empty in
  let halves =
    if n >= 2 then List.to_seq [ case (keep 0 (n / 2)); case (keep (n / 2) n) ]
    else Seq.empty
  in
  let singles =
    if n >= 2 then Seq.init n (fun i -> case (drop (n - 1 - i))) else Seq.empty
  in
  let narrower i =
    match List.nth cmds i with
    | Mint (k, a, r) when k > 32 ->
      let m = Mint (32 + ((k - 32) / 2), a, r) in
      Seq.return (case (List.mapi (fun j c -> if j = i then m else c) cmds))
    | _ -> Seq.empty
  in
  List.fold_right Seq.append [ mints; halves; singles ]
    (Seq.concat_map narrower (Seq.init n Fun.id))

let gen_case =
  QCheck2.Gen.(
    set_shrink shrink_case
      (pair
         (oneofl [ 3; 6; 64; 200; 1_000; 2_000 ])
         (list_size (int_range 1 40) gen_cmd)))

let print_case (max_entries, cmds) =
  Printf.sprintf "max_entries %d:\n  %s" max_entries
    (String.concat "\n  " (List.map pp_cmd cmds))

let new_model () =
  { masks = []; entries = []; index = Key_tbl.create 64; next_id = 0;
    clock = 0. }

let prop_model =
  QCheck2.Test.make ~count:300 ~print:print_case
    ~name:"megaflow = list reference across subtable size transitions"
    gen_case
    (fun (max_entries, cmds) ->
      let mf =
        Megaflow.create ~config:{ Megaflow.max_entries; idle_timeout } ()
      in
      let m = new_model () in
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
  let a = mk_flow (0, 0, 0, 0) and b = mk_flow (4, 0, 0, 0) in
  let hit flow = Option.map id_of (Helpers.mf_lookup mf flow ~now:0. ~pkt_len:1) in
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

(* Singleton subtable [i] of up to 512 (every ip_src/tp_dst prefix-length
   pair under an exact ip_dst), and a key only its own entry matches:
   each key differs from 0 in the last bit of its ip_src and tp_dst
   prefixes. *)
let disjoint_mask i =
  let m = Mask.with_exact Mask.empty Field.Ip_dst in
  let m = Mask.with_prefix m Field.Ip_src ((i mod 32) + 1) in
  Mask.with_prefix m Field.Tp_dst ((i / 32) + 1)

let disjoint_key ~ip_dst i =
  let f = Flow.with_field Flow.zero Field.Ip_dst ip_dst in
  let f = Flow.with_field f Field.Ip_src (1 lsl (32 - ((i mod 32) + 1))) in
  Flow.with_field f Field.Tp_dst (1 lsl (16 - ((i / 32) + 1)))

(* Compaction that moves a subtable across a summary boundary must
   rebuild the summaries. [2 * half] singleton subtables: every mask pins
   ip_dst exactly, and the first [half] keys share one ip_dst while the
   rest share another, so every block and group summary of the first
   half pins its ip_dst. The keys are complement prefixes — each differs
   from 0 in the last bit of its ip_src and tp_dst prefixes — so no key
   matches any other subtable's entry. Dropping one early entry shifts
   the first subtable of the second half into the first; with stale
   summaries the first half would still pin the old ip_dst and that key
   would miss. Every lookup is checked one packet at a time (the
   sequential scan) and as one walk over all the keys. *)
let check_compaction ~half =
  let mf =
    Megaflow.create
      ~config:{ Megaflow.max_entries = 1000; idle_timeout = 1e9 } ()
  in
  let n = 2 * half and dropped = 5 in
  let mask = disjoint_mask in
  let key i =
    disjoint_key ~ip_dst:(if i < half then 0x0A0A0001 else 0x0A0A0002) i
  in
  for i = 0 to n - 1 do
    ignore
      (Megaflow.insert mf ~key:(key i) ~mask:(mask i) ~action:(Action.Output i)
         ~revision:(if i = dropped then 1 else 0) ~now:0. ())
  done;
  ignore
    (Megaflow.revalidate mf ~now:0. ~keep:(fun e -> e.Megaflow.revision = 0) ());
  Alcotest.(check int) "one mask fewer" (n - 1) (Megaflow.n_masks mf);
  let survivors = List.filter (fun i -> i <> dropped) (List.init n Fun.id) in
  let stats = Megaflow.lookup_stats () in
  List.iteri
    (fun pos i ->
      let got = Helpers.mf_lookup ~stats mf (key i) ~now:0. ~pkt_len:1 in
      Alcotest.(check (option int))
        (Printf.sprintf "key %d hits" i) (Some i) (Option.map id_of got);
      Alcotest.(check int)
        (Printf.sprintf "key %d probes" i) (pos + 1) stats.Megaflow.s_probes)
    survivors;
  let flows = Array.of_list (List.map key survivors) in
  let k = Array.length flows in
  let out_entry = Array.make k None and out_probes = Array.make k 0 in
  let out_tbl = Array.make k 0 in
  Megaflow.walk_batch mf flows ~idx:(Array.init k Fun.id) ~n:k ~out_entry
    ~out_probes ~out_tbl;
  List.iteri
    (fun pos i ->
      Alcotest.(check (option int))
        (Printf.sprintf "walk: key %d hits" i) (Some i)
        (Option.map id_of out_entry.(pos));
      Alcotest.(check int)
        (Printf.sprintf "walk: key %d probes" i) (pos + 1) out_probes.(pos))
    survivors;
  Alcotest.(check (result unit string)) "invariants" (Ok ())
    (Megaflow.check mf)

(* 128 subtables: the first half is two blocks of 32. *)
let test_compaction_across_blocks () = check_compaction ~half:64

(* 512 subtables, every ip_src/tp_dst prefix-length pair: the first half
   is one group of 256, and the dropped entry moves subtable 256 into
   it. *)
let test_compaction_across_groups () = check_compaction ~half:256

(* Mask churn over recycled subtables: 300 disjoint singleton masks
   (two groups), swept and re-minted three times. Each re-mint takes
   back the subtable the sweep emptied — its entry shares the old
   entry's mask value — and a recycled subtable starts with no hits.
   The invariants hold after every sweep and every re-mint, and every
   key hits its own entry. *)
let test_recycled_subtables () =
  let n = 300 in
  let mf =
    Megaflow.create
      ~config:{ Megaflow.max_entries = 1000; idle_timeout = 1e9 } ()
  in
  let key = disjoint_key ~ip_dst:0x0A0A0001 and mask = disjoint_mask in
  let invariants what =
    match Megaflow.check mf with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  let mint round =
    Array.init n (fun i ->
        Megaflow.insert mf ~key:(key i) ~mask:(mask i)
          ~action:(Action.Output i) ~revision:round ~now:0. ())
  in
  let hit_all () =
    for i = 0 to n - 1 do
      Alcotest.(check (option int)) (Printf.sprintf "key %d" i) (Some i)
        (Option.map id_of (Helpers.mf_lookup mf (key i) ~now:0. ~pkt_len:1))
    done
  in
  let first = mint 0 in
  invariants "first mint";
  hit_all ();
  for round = 1 to 3 do
    ignore (Megaflow.revalidate mf ~now:0. ~keep:(fun _ -> false) ());
    invariants (Printf.sprintf "sweep %d" round);
    Alcotest.(check int) "swept" 0 (Megaflow.n_masks mf);
    let again = mint round in
    invariants (Printf.sprintf "re-mint %d" round);
    Array.iteri
      (fun i e ->
        if e.Megaflow.mask != first.(i).Megaflow.mask then
          Alcotest.failf "round %d: mask %d was not recycled" round i)
      again;
    List.iter
      (fun s -> Alcotest.(check int) "recycled: no hits" 0 s.Megaflow.ms_hits)
      (Megaflow.subtable_stats mf);
    hit_all ()
  done

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
          let s, d, p, _ = f in
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
    Alcotest.test_case "block summaries follow compaction" `Quick
      test_compaction_across_blocks;
    Alcotest.test_case "group summaries follow compaction" `Quick
      test_compaction_across_groups;
    Alcotest.test_case "revalidate-all and re-mint recycle subtables" `Quick
      test_recycled_subtables;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_hash_layout ]
