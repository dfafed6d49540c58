type config = {
  trie_fields : Field.t list;
  check_all_tries : bool;
  staged_lookup : bool;
}

let default_config =
  { trie_fields = [ Field.Ip_src; Field.Ip_dst; Field.Tp_src; Field.Tp_dst ];
    check_all_tries = true;
    staged_lookup = true }

let ovs_default_config =
  { trie_fields = [ Field.Ip_src; Field.Ip_dst ];
    check_all_tries = false;
    staged_lookup = true }

module Mask_tbl = Tables.Mask_tbl

(* A subtable is a flat store: [tbl] maps the masked-key hash to an
   index into the contiguous [e_keys]/[e_rules] arena (Flat_tbl allows
   duplicate hashes; the probe verifies with [Mask.equal_masked], so no
   masked flow is ever materialised). Stage sets are Flat_tbl multisets:
   absence of a hash proves absence of a key (no false negatives);
   collisions only cost an extra probe. The last stage has no set — the
   full entry table plays that role. Deleted arena cells are compacted
   by swap-with-last, so a walk over [0, e_n) visits every live cell. *)
type 'a subtable = {
  mask : Mask.t;
  support : int array;             (* Mask.support mask *)
  stage_masks : Mask.t array;      (* cumulative: stages 0..i *)
  stage_support : int array array; (* per stage: Mask.support stage_masks.(i) *)
  stage_used : bool array;         (* stage i adds bits of its own *)
  stage_sets : Flat_tbl.t array;   (* per-stage hash multiset *)
  tbl : Flat_tbl.t;                (* masked-key hash -> arena index *)
  mutable e_keys : Flow.t array;   (* arena: rule pattern keys *)
  mutable e_rules : 'a Rule.t list array;  (* arena: buckets, best-first *)
  mutable e_n : int;
  plen : int array;                (* per field index: trie prefix length, 0 = no trie *)
  trie_idx : int array;            (* the field indices with [plen > 0], ascending *)
  mutable max_prio : int;
  mutable n : int;
}

type 'a t = {
  cfg : config;
  subtables : 'a subtable Mask_tbl.t;
  tries : Trie.t array;            (* per field index; unused entries stay empty *)
  trie_on : bool array;            (* field index participates in trie checks *)
  mutable sorted : 'a subtable array;  (* dense, decreasing max_prio *)
  mutable dirty : bool;
  mutable n_rules : int;
}

let create ?(config = default_config) () =
  let trie_on = Array.make Field.count false in
  List.iter (fun f -> trie_on.(Field.index f) <- true) config.trie_fields;
  { cfg = config;
    subtables = Mask_tbl.create 16;
    tries = Array.init Field.count (fun i -> Trie.create ~width:(Field.width (Field.of_index i)));
    trie_on;
    sorted = [||];
    dirty = false;
    n_rules = 0 }

let config t = t.cfg

let stage_masks_of mask =
  let cum = Array.make Field.Stage.count Mask.empty in
  let used = Array.make Field.Stage.count false in
  let acc = ref Mask.empty in
  List.iteri
    (fun si stage ->
      List.iter
        (fun f ->
          if Field.Stage.equal (Field.Stage.of_field f) stage then begin
            let bits = Mask.get mask f in
            if bits <> 0 then begin
              used.(si) <- true;
              acc := Mask.with_field !acc f bits
            end
          end)
        Field.all;
      cum.(si) <- !acc)
    Field.Stage.all;
  (cum, used)

let plen_of t mask =
  let plen = Array.make Field.count 0 in
  List.iter
    (fun f ->
      let i = Field.index f in
      if t.trie_on.(i) then
        match Mask.prefix_len mask f with
        | Some n when n > 0 -> plen.(i) <- n
        | Some _ | None -> ())
    Field.all;
  plen

let new_subtable t mask =
  let stage_masks, stage_used = stage_masks_of mask in
  let plen = plen_of t mask in
  { mask;
    support = Mask.support mask;
    stage_masks;
    stage_support = Array.map Mask.support stage_masks;
    stage_used;
    stage_sets = Array.init Field.Stage.count (fun _ -> Flat_tbl.create ());
    tbl = Flat_tbl.create ();
    e_keys = [||];
    e_rules = [||];
    e_n = 0;
    plen;
    trie_idx =
      Array.of_list
        (List.filter (fun i -> plen.(i) > 0) (List.init Field.count Fun.id));
    max_prio = min_int;
    n = 0 }

let last_stage = Field.Stage.count - 1

(* Grow the arena, seeding fresh key slots with the key being inserted
   (so no dummy flow value is ever needed). *)
let ensure_arena st key =
  let cap = Array.length st.e_keys in
  if st.e_n = cap then begin
    let ncap = max 4 (cap * 2) in
    let nk = Array.make ncap key in
    Array.blit st.e_keys 0 nk 0 cap;
    st.e_keys <- nk;
    let nr = Array.make ncap [] in
    Array.blit st.e_rules 0 nr 0 cap;
    st.e_rules <- nr
  end

(* Arena index of the cell holding exactly [key] (keys are pre-masked,
   so plain [Flow.equal] identifies the cell), or -1. *)
let rec cell_index st h slot key =
  if slot < 0 then -1
  else begin
    let idx = Flat_tbl.value st.tbl slot in
    if Flow.equal st.e_keys.(idx) key then idx
    else cell_index st h (Flat_tbl.next st.tbl h slot) key
  end

let insert t (rule : 'a Rule.t) =
  let mask = rule.Rule.pattern.Pattern.mask in
  let key = rule.Rule.pattern.Pattern.key in
  let st =
    match Mask_tbl.find_opt t.subtables mask with
    | Some st -> st
    | None ->
      let st = new_subtable t mask in
      Mask_tbl.add t.subtables mask st;
      (* Register the subtable's trie prefixes lazily per rule below. *)
      st
  in
  (* Per-rule trie registration: every rule contributes its (identical)
     per-field prefix so that reference counting survives removal. *)
  Array.iteri
    (fun i plen ->
      if plen > 0 then
        Trie.insert t.tries.(i) ~value:(Flow.get key (Field.of_index i)) ~len:plen)
    st.plen;
  for si = 0 to last_stage - 1 do
    if st.stage_used.(si) then
      Flat_tbl.incr st.stage_sets.(si)
        (Mask.hash_masked_on st.stage_support.(si) st.stage_masks.(si) key)
  done;
  let h = Mask.hash_masked_on st.support st.mask key in
  let idx = cell_index st h (Flat_tbl.find_first st.tbl h) key in
  if idx >= 0 then
    st.e_rules.(idx) <- List.sort Rule.compare_precedence (rule :: st.e_rules.(idx))
  else begin
    ensure_arena st key;
    let idx = st.e_n in
    st.e_keys.(idx) <- key;
    st.e_rules.(idx) <- [ rule ];
    st.e_n <- idx + 1;
    Flat_tbl.add st.tbl h idx
  end;
  st.n <- st.n + 1;
  if rule.Rule.priority > st.max_prio then st.max_prio <- rule.Rule.priority;
  t.n_rules <- t.n_rules + 1;
  t.dirty <- true

(* Delete arena cell [i]: unhook its hash slot (backward-shift, no
   tombstone), then compact by moving the last cell into the hole and
   redirecting that cell's hash slot to the new index. *)
let remove_cell st i =
  let h = Mask.hash_masked_on st.support st.mask st.e_keys.(i) in
  let rec find_slot slot =
    if slot < 0 then assert false
    else if Flat_tbl.value st.tbl slot = i then slot
    else find_slot (Flat_tbl.next st.tbl h slot)
  in
  Flat_tbl.remove_slot st.tbl (find_slot (Flat_tbl.find_first st.tbl h));
  let last = st.e_n - 1 in
  if i <> last then begin
    let moved_key = st.e_keys.(last) in
    st.e_keys.(i) <- moved_key;
    st.e_rules.(i) <- st.e_rules.(last);
    let hm = Mask.hash_masked_on st.support st.mask moved_key in
    let rec fix slot =
      if slot < 0 then assert false
      else if Flat_tbl.value st.tbl slot = last then Flat_tbl.set_value st.tbl slot i
      else fix (Flat_tbl.next st.tbl hm slot)
    in
    fix (Flat_tbl.find_first st.tbl hm)
  end;
  st.e_rules.(last) <- [];
  st.e_n <- last

let remove t pred =
  let removed = ref 0 in
  let dead_subtables = ref [] in
  Mask_tbl.iter
    (fun _mask st ->
      (* Downward so a swap-with-last compaction only moves cells we
         have already visited. *)
      for i = st.e_n - 1 downto 0 do
        let key = st.e_keys.(i) in
        let keep, drop = List.partition (fun r -> not (pred r)) st.e_rules.(i) in
        if drop <> [] then begin
          List.iter
            (fun (r : 'a Rule.t) ->
              ignore r;
              Array.iteri
                (fun fi plen ->
                  if plen > 0 then
                    Trie.remove t.tries.(fi)
                      ~value:(Flow.get key (Field.of_index fi)) ~len:plen)
                st.plen;
              for si = 0 to last_stage - 1 do
                if st.stage_used.(si) then
                  Flat_tbl.decr st.stage_sets.(si)
                    (Mask.hash_masked_on st.stage_support.(si)
                       st.stage_masks.(si) key)
              done)
            drop;
          let n_drop = List.length drop in
          removed := !removed + n_drop;
          st.n <- st.n - n_drop;
          t.n_rules <- t.n_rules - n_drop;
          if keep = [] then remove_cell st i
          else st.e_rules.(i) <- keep
        end
      done;
      if st.n = 0 then dead_subtables := st.mask :: !dead_subtables
      else begin
        (* Recompute max priority after removals. *)
        let mp = ref min_int in
        for i = 0 to st.e_n - 1 do
          List.iter
            (fun (r : 'a Rule.t) ->
              if r.Rule.priority > !mp then mp := r.Rule.priority)
            st.e_rules.(i)
        done;
        st.max_prio <- !mp
      end)
    t.subtables;
  List.iter (fun m -> Mask_tbl.remove t.subtables m) !dead_subtables;
  if !removed > 0 then t.dirty <- true;
  !removed

let refresh_sorted t =
  if t.dirty then begin
    let l = Mask_tbl.fold (fun _ st acc -> st :: acc) t.subtables [] in
    let arr = Array.of_list l in
    Array.sort (fun a b -> Int.compare b.max_prio a.max_prio) arr;
    t.sorted <- arr;
    t.dirty <- false
  end

(* The lookup below runs once per upcall: every helper is a top-level
   recursive function with explicit arguments (an inner [let rec] would
   allocate a closure per call) and every "is it there?" answer is an
   int sentinel, not an option. The only allocation in steady state is
   the [Some rule] built when a probe actually improves a packet's best
   match, and the frozen megaflow masks.

   Per-field trie lookups are lazy and shared across subtables; the
   results live in a per-slot scratch row ([tr]/[ok]) invalidated per
   lookup. *)
let trie_res t flow tr ok i =
  if not ok.(i) then begin
    Trie.lookup_into t.tries.(i) (Flow.get flow (Field.of_index i)) tr.(i);
    ok.(i) <- true
  end;
  tr.(i)

(* 1. Trie checks: can any rule of this subtable match at all? Returns
   [true] if the subtable is proven unmatchable; proof prefixes are
   accumulated into [b] ("un-wildcard just enough leading bits"). Visits
   only the subtable's trie fields ([trie_idx], ascending), which are the
   fields with a prefix length. *)
let rec trie_check t st flow b tr ok k skipped =
  if k >= Array.length st.trie_idx then skipped
  else begin
    let i = Array.unsafe_get st.trie_idx k in
    let skipped =
      if (not skipped) || t.cfg.check_all_tries then begin
        let r = trie_res t flow tr ok i in
        if not (Trie.covers r st.plen.(i)) then begin
          Mask.Builder.add_prefix b (Field.of_index i) r.Trie.checked;
          true
        end
        else skipped
      end
      else skipped
    in
    trie_check t st flow b tr ok (k + 1) skipped
  end

(* 2. Staged hash lookup: first stage whose set proves absence, -1 if
   every stage passes. *)
let rec stage_check st flow si =
  if si >= last_stage then -1
  else if
    st.stage_used.(si)
    && not
         (Flat_tbl.mem st.stage_sets.(si)
            (Mask.hash_masked_on st.stage_support.(si) st.stage_masks.(si)
               flow))
  then si
  else stage_check st flow (si + 1)

(* 3. Full-key probe: masked hash + masked equality, fused — no masked
   flow is built. At most one arena cell's key can be masked-equal. *)
let rec entry_probe st flow h slot best =
  if slot < 0 then best
  else begin
    let idx = Flat_tbl.value st.tbl slot in
    if Mask.equal_masked_on st.support st.mask st.e_keys.(idx) flow then
      match st.e_rules.(idx) with
      | r :: _ ->
        (match best with
         | Some b when not (Rule.wins r b) -> best
         | _ -> Some r)
      | [] -> best
    else entry_probe st flow h (Flat_tbl.next st.tbl h slot) best
  end

let examine t st flow b tr ok best =
  if trie_check t st flow b tr ok 0 false then best
  else begin
    let si = if t.cfg.staged_lookup then stage_check st flow 0 else -1 in
    if si >= 0 then begin
      (* Genuinely absent at stage [si]: only stages 0..si examined. *)
      Mask.Builder.add_mask_on b st.stage_support.(si) st.stage_masks.(si);
      best
    end
    else begin
      Mask.Builder.add_mask_on b st.support st.mask;
      let h = Mask.hash_masked_on st.support st.mask flow in
      entry_probe st flow h (Flat_tbl.find_first st.tbl h) best
    end
  end

(* --- Subtable-major lookup ----------------------------------------- *)

(* Reused per-batch scratch: one un-wildcarding builder, one trie-memo
   row and one result slot per packet position. Created once, reused for
   every batch — the walk itself allocates only [Some rule] when a probe
   improves a packet's best match. A slot's megaflow mask is frozen when
   the caller reads it with [batch_megaflow], so a caller that does not
   need it (the cacheless engine) pays for no copy, and one that only
   reads it before the next walk ([batch_megaflow_borrowed]) pays for
   none either. *)
type 'a batch = {
  bs_cap : int;
  bs_builders : Mask.Builder.t array;
  bs_trie : Trie.lookup_result array array;   (* slot × field *)
  bs_trie_ok : bool array array;
  bs_rule : 'a Rule.t option array;
  bs_probes : int array;
  bs_done : bool array;                       (* early-stop latch *)
}

let batch ~capacity =
  if capacity < 1 then invalid_arg "Tss.batch: capacity";
  { bs_cap = capacity;
    bs_builders = Array.init capacity (fun _ -> Mask.Builder.create ());
    bs_trie =
      Array.init capacity (fun _ ->
          Array.init Field.count (fun _ -> Trie.result ()));
    bs_trie_ok = Array.init capacity (fun _ -> Array.make Field.count false);
    bs_rule = Array.make capacity None;
    bs_probes = Array.make capacity 0;
    bs_done = Array.make capacity false }

let batch_capacity bs = bs.bs_cap
let batch_rule bs j = bs.bs_rule.(j)
let batch_megaflow bs j = Mask.Builder.freeze bs.bs_builders.(j)
let batch_megaflow_borrowed bs j = Mask.Builder.borrow bs.bs_builders.(j)
let batch_probes bs j = bs.bs_probes.(j)

(* One subtable over every still-active packet; returns the updated
   count of active packets. The per-packet early stop is re-evaluated
   against this subtable's [max_prio]: strictly-lower subtables cannot
   beat the packet's best rule, while equal-max-priority subtables must
   still be examined because ties go to the rule added first. [sorted]
   is decreasing in [max_prio], so once a packet stops it stays stopped
   — a packet's probe count is the number of subtables a lone walk
   would examine. *)
let batch_examine t bs flows idx n st remaining =
  let remaining = ref remaining in
  for j = 0 to n - 1 do
    if not bs.bs_done.(j) then begin
      let best = bs.bs_rule.(j) in
      let stop =
        match best with
        | Some r -> r.Rule.priority > st.max_prio
        | None -> false
      in
      if stop then begin
        bs.bs_done.(j) <- true;
        decr remaining
      end
      else begin
        bs.bs_probes.(j) <- bs.bs_probes.(j) + 1;
        let r =
          examine t st flows.(idx.(j)) bs.bs_builders.(j) bs.bs_trie.(j)
            bs.bs_trie_ok.(j) best
        in
        (* Store only an improvement: most probes find nothing better,
           and skipping the store skips its write barrier. *)
        if r != best then bs.bs_rule.(j) <- r
      end
    end
  done;
  !remaining

let rec batch_walk t bs flows idx n ti remaining =
  if remaining > 0 && ti < Array.length t.sorted then begin
    let remaining =
      batch_examine t bs flows idx n (Array.unsafe_get t.sorted ti) remaining
    in
    batch_walk t bs flows idx n (ti + 1) remaining
  end

(* A batch of one, walked packet-major: the same stop rule and probes
   as [batch_examine] gives a lone slot, with the best rule and probe
   count carried as arguments instead of loaded from and stored to the
   slot arrays (and their write barriers) at every subtable. *)
let rec walk_one t bs flow b tr ok best probes i =
  let arr = t.sorted in
  if
    i < Array.length arr
    &&
    match best with
    | Some r -> r.Rule.priority <= (Array.unsafe_get arr i).max_prio
    | None -> true
  then
    walk_one t bs flow b tr ok
      (examine t (Array.unsafe_get arr i) flow b tr ok best)
      (probes + 1) (i + 1)
  else begin
    bs.bs_rule.(0) <- best;
    bs.bs_probes.(0) <- probes
  end

(* Clear slot [j]'s un-wildcarding builder and trie memo. A loop, not
   [Array.fill], as in [Mask.Builder.reset]. *)
let reset_slot bs j =
  Mask.Builder.reset bs.bs_builders.(j);
  let ok = bs.bs_trie_ok.(j) in
  for i = 0 to Field.count - 1 do
    ok.(i) <- false
  done

(* Subtable-major wildcard lookup over the [n] packets
   [flows.(idx.(0)) .. flows.(idx.(n-1))]: for each subtable (in probe
   order), examine every still-active packet, then move to the next —
   each subtable's mask, stage sets and entry table are loaded once per
   batch instead of once per packet. This is the classifier's only
   lookup: a single flow is a batch of one. Per-packet results land in
   the scratch ({!batch_rule} / {!batch_megaflow} / {!batch_probes}) and
   do not depend on the rest of the batch: the classifier is read-only
   during the walk and every per-packet accumulator (best rule, builder,
   trie memo, early-stop) is private to its slot. One packet has no
   subtable loads to share, so it takes [walk_one]: a choice on input
   size, with the same results either way. *)
let find_wc_batch t bs flows ~idx ~n =
  if n > bs.bs_cap then invalid_arg "Tss.find_wc_batch: batch overflow";
  refresh_sorted t;
  if n = 1 then begin
    reset_slot bs 0;
    walk_one t bs flows.(idx.(0)) bs.bs_builders.(0) bs.bs_trie.(0)
      bs.bs_trie_ok.(0) None 0 0
  end
  else begin
    for j = 0 to n - 1 do
      reset_slot bs j;
      bs.bs_rule.(j) <- None;
      bs.bs_probes.(j) <- 0;
      bs.bs_done.(j) <- false
    done;
    batch_walk t bs flows idx n 0 n
  end

let n_rules t = t.n_rules

let n_subtables t = Mask_tbl.length t.subtables

let rules t =
  let acc = ref [] in
  Mask_tbl.iter
    (fun _ st ->
      for i = 0 to st.e_n - 1 do
        acc := List.rev_append st.e_rules.(i) !acc
      done)
    t.subtables;
  List.sort Rule.compare_precedence !acc

let iter f t = List.iter f (rules t)
