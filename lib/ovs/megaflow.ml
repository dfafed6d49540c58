open Pi_classifier

type entry = {
  key : Flow.t;
  mask : Mask.t;
  action : Action.t;
  revision : int;
  created : float;
  origin : Provenance.origin option;
  mutable last_used : float;
  mutable n_packets : int;
  mutable n_bytes : int;
  mutable alive : bool;
}

(* A subtable holds the entries under one mask in [s_arena], an array
   of [entry option]s ([Some] for every slot below [s_count]; the option
   box is what a hit returns, so the probe path allocates nothing — the
   EMC "stored Some" trick). Deleted cells are compacted by
   swap-with-last.

   [s_desc] is the packed probe descriptor: one [field; mask word; key
   word] triple per support field of the mask. Fields outside the
   support are fully wildcarded, so a probe touches only these words
   and never builds a masked flow. How the arena is probed depends on
   the entry count alone:
   - one entry (the attack's steady state: one covert flow per injected
     mask): no hash table. The key words hold that entry's masked key
     and a probe is a direct masked compare against the descriptor;
   - two or more: [s_tbl] maps the masked-key hash to an arena index
     and each candidate's key is compared. The table is built when the
     second entry arrives and dropped when the count falls back to one.
   The key words are meaningful only while [s_count = 1]. [s_mask] is
   the subtable's own copy of its mask, and every entry under it shares
   that one value as its [mask]. An entry's [key] is the flow whose
   upcall minted it, not a masked copy: only its bits under the mask
   are meaningful, so every key compare below masks both sides. *)
type subtable = {
  mutable s_pos : int;                    (* index in [t.arr]; -1 if pooled *)
  s_desc : int array;                     (* [field; mask; key] triples *)
  s_mask : Mask.t;
  s_hash : int;                           (* {!mask_hash} of [s_mask] *)
  mutable s_tbl : Flat_tbl.t option;      (* Some iff s_count >= 2 *)
  mutable s_arena : entry option array;   (* slots [0, s_count) are Some *)
  mutable s_count : int;
  mutable s_hits : int;
}

type config = {
  max_entries : int;
  idle_timeout : float;
}

let default_config = { max_entries = 200_000; idle_timeout = 10.0 }

(* Subtables live in a growable array scanned in creation order, so the
   per-packet bookkeeping is O(1): [n_tables] is the mask count (no list
   walk), [by_mask] answers mask-membership in one probe, and a new mask
   is an amortised-O(1) append. The array keeps its capacity when masks
   are dropped, and its unused slots hold the static [vacant]: growing
   or refilling it never fills a large array with a young value, which
   would force a minor collection (DESIGN.md §5b).

   [by_mask] maps the support-only hash of a mask (its nonzero words and
   their field indices) to the position of its subtable; a candidate is
   confirmed against that subtable's descriptor, whose field and mask
   words are the mask. It is rebuilt wherever positions change.

   [generation] counts the reorderings (resort, compaction, flush) that
   invalidate any previously handed-out subtable index — the
   {!Mask_cache} hints — while plain appends leave existing indices
   valid and do not bump it.

   The scan order is cut into blocks of [block_size] consecutive
   subtables, and [blocks.(b)] summarises block [b] as a descriptor: the
   bits every entry of the block constrains and on which all their
   masked keys agree. A packet that matches any entry of a block passes
   its summary, so a packet failing it skips the whole block; probe
   counts are derived from positions, so nothing observable changes.
   Consecutive blocks form groups of [group_size] subtables, and
   [groups.(g)] summarises group [g] the same way, so a packet failing
   it skips the group's blocks without testing their summaries.

   [pool] holds the subtables the last sweep emptied (revalidation, or
   the eviction of a full cache), indexed by mask hash in [pool_by_mask]
   like [by_mask]. A mask minted again takes its old subtable back —
   record, descriptor, mask and arena — instead of allocating new ones;
   under mask churn every round re-mints what the last one evicted. A
   taken slot holds [vacant]; the next sweep replaces the whole pool.

   [floor.(0)] bounds from below the [last_used] of every live entry,
   as far as stamps written at insert or kept through a sweep go: a
   sweep sets it to its survivors' minimum ([infinity] if none), each
   insert lowers it to its own [now], and a flush resets it. Hits stamp
   [last_used] without lowering it; a caller that skips sweeps by the
   bound covers those stamps itself. A one-cell float array, not a
   mutable float field: a store into a float field of this mixed record
   boxes. [deaths] counts the entries ever killed, so a caller can tell
   whether a reference it holds may have gone dead. *)
type t = {
  cfg : config;
  by_mask : Flat_tbl.t;             (* mask hash -> position in [arr] *)
  mutable arr : subtable array;     (* slots [0, n_tables) are live *)
  mutable n_tables : int;
  mutable blocks : int array array;
      (* slots [0, ceil (n_tables / block_size)) are live summaries;
         the rest hold [unmerged], ready for the next block *)
  mutable groups : int array array;
      (* the same for groups: slots [0, ceil (n_tables / group_size)) *)
  mutable pool : subtable array;    (* slots [0, pool_n) *)
  mutable pool_n : int;
  pool_by_mask : Flat_tbl.t;        (* mask hash -> slot in [pool] *)
  mutable generation : int;
  floor : float array;
  mutable deaths : int;
  mutable n : int;
  mutable hits : int;
  mutable misses : int;
  mutable probes : int;
  mutable masks_created : int;
  mutable evicted : int;
      (* cumulative: evictions lower [n_tables] and [n], never these *)
  mutable scan_pos : int;
      (* walk scratch: the probes paid by the last one-packet [scan] *)
  mutable w_remaining : int;
      (* walk scratch: packets of the current batch still unresolved.
         A field, not a [ref], so the per-subtable walk loop allocates
         nothing; only meaningful while [walk_batch] runs. *)
  mutable w_fields : int array array;
      (* walk scratch: slot [j] holds the field words of miss-set packet
         [j], gathered once per batch so the per-subtable loops read them
         without the [idx]/[flows] indirection. Grows to the largest
         batch seen, then is reused. *)
  mutable w_sel : int array;
  mutable w_sel_ff : int array array;
  mutable w_k : int;
      (* walk scratch: the selection — slots [0, w_k) hold the miss-set
         slot and the field words of each still-unresolved packet that
         passed the current block's summary. Grow like [w_fields]. *)
  mutable w_gsel : int array;
  mutable w_gk : int;
      (* walk scratch: the group selection — slots [0, w_gk) hold the
         miss-set slot of each packet that was unresolved when the
         current group began and passed its summary. *)
  mutable ins_pos : int;
  mutable ins_evicted : bool;
      (* the last insert: its subtable's position, and whether it had to
         evict first — what {!patch_walk} needs *)
}

let create ?(config = default_config) () =
  { cfg = config;
    by_mask = Flat_tbl.create ();
    arr = [||];
    n_tables = 0;
    blocks = [||];
    groups = [||];
    pool = [||];
    pool_n = 0;
    pool_by_mask = Flat_tbl.create ();
    generation = 0;
    floor = [| infinity |];
    deaths = 0;
    n = 0;
    hits = 0;
    misses = 0;
    probes = 0;
    masks_created = 0;
    evicted = 0;
    scan_pos = 0;
    w_remaining = 0;
    w_fields = [||];
    w_sel = [||];
    w_sel_ff = [||];
    w_k = 0;
    w_gsel = [||];
    w_gk = 0;
    ins_pos = -1;
    ins_evicted = false }

let generation t = t.generation

let iter_subtables f t =
  for i = 0 to t.n_tables - 1 do
    f t.arr.(i)
  done

(* Apply [f] to every live entry of [st]; the arena prefix is dense, so
   this is a straight array walk. *)
let iter_entries f st =
  for i = 0 to st.s_count - 1 do
    match st.s_arena.(i) with
    | Some e -> f e
    | None -> assert false
  done

(* --- Probe descriptor ------------------------------------------------

   The descriptor helpers read flow fields at indices taken from
   [Mask.support], which are below [Field.count], and descriptor words
   at [k], [k + 1], [k + 2] for [k] a multiple of 3 below its length, so
   every unsafe read below is bounded. They are top-level recursions,
   not inner closures, so that no probe allocates. *)

let desc_of_mask mask =
  let w = Mask.unsafe_words mask in
  let n = ref 0 in
  for f = 0 to Array.length w - 1 do
    if w.(f) <> 0 then incr n
  done;
  let d = Array.make (3 * !n) 0 in
  let k = ref 0 in
  for f = 0 to Array.length w - 1 do
    if w.(f) <> 0 then begin
      d.(!k) <- f;
      d.(!k + 1) <- w.(f);
      k := !k + 3
    end
  done;
  d

(* Load the singleton's masked key into the descriptor's key words. *)
let set_desc_key d key =
  let kf = Flow.unsafe_fields key in
  for k = 0 to (Array.length d / 3) - 1 do
    d.((3 * k) + 2) <- d.((3 * k) + 1) land kf.(d.(3 * k))
  done

(* [ff] (flow fields) agrees with the descriptor's key words. *)
let rec desc_match d ff k =
  k >= Array.length d
  || Array.unsafe_get d (k + 1) land Array.unsafe_get ff (Array.unsafe_get d k)
     = Array.unsafe_get d (k + 2)
     && desc_match d ff (k + 3)

(* --- Block and group summaries --------------------------------------

   A summary is a descriptor in the [s_desc] triple format whose mask
   words are the bits every entry of the block constrains and on which
   all their masked keys agree, and whose key words are those agreed
   values. Soundness: a packet matching an entry agrees with that
   entry's masked key on every summary bit, hence with the summary — so
   a packet failing the summary matches no entry of the block, and the
   block can be skipped without changing which entry wins. A group
   summary is the same over a group of consecutive blocks.

   Summaries only narrow as entries are merged in; a removed entry's
   bits are left in place, since a summary over a superset of the live
   entries is still sound. [set_tables] — the only place positions
   change — rebuilds them from the live entries. *)

(* Fixed, not tunables: blocks of 32 subtables, groups of 8 blocks. *)
let block_bits = 5
let block_size = 1 lsl block_bits
let group_bits = 3
let group_shift = block_bits + group_bits
let group_size = 1 lsl group_shift

(* The summary of a block or group no entry has been merged into.
   [0 land _ = 1] fails every packet, so it is skipped; recognised by
   physical identity when the first entry is merged. *)
let unmerged = [| 0; 0; 1 |]

(* The mask word of descriptor [d] on field [f] (0 outside its support). *)
let rec desc_mask_on d f k =
  if k >= Array.length d then 0
  else if d.(k) = f then d.(k + 1)
  else desc_mask_on d f (k + 3)

(* Narrow summary [s] to the bits that an entry with descriptor [d] and
   pre-masked key fields [kf] also constrains and agrees on:
   [agree <- agree land mask land lnot (key lxor entry key)]. Summaries
   are owned by their block, so this narrows in place and allocates
   only to drop the triples left with no bit. *)
let merge_summary s d kf =
  if s == unmerged then begin
    let r = Array.copy d in
    for k = 0 to (Array.length r / 3) - 1 do
      r.((3 * k) + 2) <- r.((3 * k) + 1) land kf.(r.(3 * k))
    done;
    r
  end
  else begin
    let n = Array.length s / 3 in
    let live = ref 0 in
    for k = 0 to n - 1 do
      let f = s.(3 * k) and key = s.((3 * k) + 2) in
      let m =
        s.((3 * k) + 1) land desc_mask_on d f 0 land lnot (key lxor kf.(f))
      in
      s.((3 * k) + 1) <- m;
      s.((3 * k) + 2) <- key land m;
      if m <> 0 then incr live
    done;
    if !live = n then s
    else begin
      let r = Array.make (3 * !live) 0 in
      let j = ref 0 in
      for k = 0 to n - 1 do
        if s.((3 * k) + 1) <> 0 then begin
          Array.blit s (3 * k) r (3 * !j) 3;
          incr j
        end
      done;
      r
    end
  end

let merge_entry t st e =
  let kf = Flow.unsafe_fields e.key in
  let b = st.s_pos lsr block_bits and g = st.s_pos lsr group_shift in
  t.blocks.(b) <- merge_summary t.blocks.(b) st.s_desc kf;
  t.groups.(g) <- merge_summary t.groups.(g) st.s_desc kf

let n_blocks t = (t.n_tables + block_size - 1) lsr block_bits
let n_groups t = (t.n_tables + group_size - 1) lsr group_shift

(* The filler of the subtable array's unused slots; never probed. *)
let vacant =
  { s_pos = -1; s_desc = [||]; s_mask = Mask.empty; s_hash = 0; s_tbl = None;
    s_arena = [||]; s_count = 0; s_hits = 0 }

(* --- Mask index ------------------------------------------------------ *)

(* [w] is a mask's words, one per field index. *)
let rec mask_hash w h i =
  if i >= Array.length w then Bits.finalize h
  else begin
    let x = Array.unsafe_get w i in
    mask_hash w (if x = 0 then h else Bits.mix (Bits.mix h i) x) (i + 1)
  end

(* Descriptor [d] (from triple [k]) describes exactly the mask words
   [w] (from field [i]). *)
let rec desc_is_mask d w k i =
  if i >= Array.length w then k >= Array.length d
  else begin
    let x = Array.unsafe_get w i in
    if x = 0 then desc_is_mask d w k (i + 1)
    else
      k < Array.length d && d.(k) = i && d.(k + 1) = x
      && desc_is_mask d w (k + 3) (i + 1)
  end

(* The index, in [arr], of the subtable of mask words [w] that [tbl]
   (a mask hash -> index table over [arr]) finds from [slot] on, or -1;
   [h] is their {!mask_hash}. Used over the scan ([by_mask], [arr]) and
   the pool ([pool_by_mask], [pool]), whose taken slots hold [vacant]. *)
let rec find_in tbl arr w h slot =
  if slot < 0 then -1
  else begin
    let i = Flat_tbl.value tbl slot in
    let st = arr.(i) in
    if st != vacant && desc_is_mask st.s_desc w 0 0 then i
    else find_in tbl arr w h (Flat_tbl.next tbl h slot)
  end

let find_pos t w h =
  find_in t.by_mask t.arr w h (Flat_tbl.find_first t.by_mask h)

let position t mask =
  let w = Mask.unsafe_words mask in
  let h = mask_hash w 0 0 in
  find_pos t w h

let grow_summaries a =
  let na = Array.make (max 4 (2 * Array.length a)) unmerged in
  Array.blit a 0 na 0 (Array.length a);
  na

let push_subtable t st =
  let cap = Array.length t.arr in
  if t.n_tables = cap then begin
    let arr = Array.make (max 8 (2 * cap)) vacant in
    Array.blit t.arr 0 arr 0 cap;
    t.arr <- arr
  end;
  let i = t.n_tables in
  t.arr.(i) <- st;
  st.s_pos <- i;
  t.n_tables <- i + 1;
  (* the first subtable of a block or group with no slot yet *)
  if i lsr block_bits = Array.length t.blocks then
    t.blocks <- grow_summaries t.blocks;
  if i lsr group_shift = Array.length t.groups then
    t.groups <- grow_summaries t.groups

(* Replace the live prefix with [l], some of the live subtables in a
   new order; any outstanding index is now stale, so the generation
   advances. Positions move, so the mask index and every block and
   group summary are rebuilt from the live subtables. [l] is no longer
   than the live prefix, so the arrays are refilled in place and keep
   their capacity. *)
let set_tables t l =
  let n = List.length l in
  Array.fill t.arr n (t.n_tables - n) vacant;
  t.n_tables <- n;
  Array.fill t.blocks 0 (Array.length t.blocks) unmerged;
  Array.fill t.groups 0 (Array.length t.groups) unmerged;
  Flat_tbl.clear t.by_mask;
  List.iteri
    (fun i st ->
      t.arr.(i) <- st;
      st.s_pos <- i;
      Flat_tbl.add t.by_mask st.s_hash i;
      iter_entries (merge_entry t st) st)
    l;
  t.generation <- t.generation + 1

(* [ff] agrees with the key fields [kf] under the mask. *)
let rec key_match d kf ff k =
  k >= Array.length d
  || (let f = Array.unsafe_get d k and m = Array.unsafe_get d (k + 1) in
      m land Array.unsafe_get ff f = m land Array.unsafe_get kf f
      && key_match d kf ff (k + 3))

(* Mixes the masked support words in support order: bit-identical to
   [Mask.hash_masked_on (Mask.support m) m]. *)
let rec desc_hash d ff h k =
  if k >= Array.length d then Bits.finalize h
  else
    desc_hash d ff
      (Bits.mix h
         (Array.unsafe_get d (k + 1)
          land Array.unsafe_get ff (Array.unsafe_get d k)))
      (k + 3)

let hash_key st key = desc_hash st.s_desc (Flow.unsafe_fields key) 0 0

(* The probe returns the arena's stored [Some] — nothing is allocated
   on a hit (or a miss: [None] is immediate). *)
let rec probe_entries st tbl ff h slot =
  if slot < 0 then None
  else begin
    match st.s_arena.(Flat_tbl.value tbl slot) with
    | Some e as r when key_match st.s_desc (Flow.unsafe_fields e.key) ff 0 -> r
    | _ -> probe_entries st tbl ff h (Flat_tbl.next tbl h slot)
  end

let find_hashed st tbl ff =
  let h = desc_hash st.s_desc ff 0 0 in
  let slot = Flat_tbl.find_first tbl h in
  (* The common outcome — no entry under this mask — must not pay a
     call: [probe_entries] is only entered on a hash match. *)
  if slot < 0 then None else probe_entries st tbl ff h slot

(* With a single entry, "hash hit and key match" is just "key match":
   the singleton compare is exact, not a filter. *)
let find_fields st ff =
  if st.s_count = 1 then
    if desc_match st.s_desc ff 0 then st.s_arena.(0) else None
  else
    match st.s_tbl with
    | Some tbl -> find_hashed st tbl ff
    | None -> None

let find_in_subtable st flow = find_fields st (Flow.unsafe_fields flow)

let hit_entry t st e ~now ~pkt_len ~probes =
  e.last_used <- now;
  e.n_packets <- e.n_packets + 1;
  e.n_bytes <- e.n_bytes + pkt_len;
  st.s_hits <- st.s_hits + 1;
  t.hits <- t.hits + 1;
  t.probes <- t.probes + probes

let miss t ~probes =
  t.misses <- t.misses + 1;
  t.probes <- t.probes + probes

(* Caller-owned probe reporting: each commit writes the probe count it
   charged into the record its caller passed, so two walks in flight
   cannot clobber each other's count. *)
type lookup_stats = { mutable s_probes : int }

let lookup_stats () = { s_probes = 0 }

(* The one-packet kernel: the sequential scan. A pair of top-level
   recursive functions, not an inner closure, so that no call allocates;
   the position reached goes to [t.scan_pos] rather than into a result
   tuple.

   Each group is entered only if the packet passes its summary, and
   within it each block likewise; a group or block it fails is jumped
   over whole. The probe count is not carried through the loop: the
   scan's only loop variable is the subtable index, and a hit at index
   [i] paid [i + 1] probes, a miss all of them. *)
let[@inline] block_end t i = min t.n_tables (i + block_size)
let[@inline] group_end t i = min t.n_tables (i + group_size)

let rec scan t ff i =
  if i >= t.n_tables then begin
    t.scan_pos <- t.n_tables;
    None
  end
  else begin
    let ghi = group_end t i in
    if desc_match (Array.unsafe_get t.groups (i lsr group_shift)) ff 0 then
      scan_group t ff i ghi
    else scan t ff ghi
  end

and scan_group t ff i ghi =
  if i >= ghi then scan t ff i
  else begin
    let hi = block_end t i in
    if desc_match (Array.unsafe_get t.blocks (i lsr block_bits)) ff 0 then
      scan_block t ff i hi ghi
    else scan_group t ff hi ghi
  end

and scan_block t ff i hi ghi =
  if i >= hi then scan_group t ff i ghi
  else begin
    match find_fields t.arr.(i) ff with
    | Some _ as r ->
      t.scan_pos <- i + 1;
      r
    | None -> scan_block t ff (i + 1) hi ghi
  end

(* --- Subtable-major batch walk ------------------------------------- *)

(* Pure walk of one subtable over the selection: the still-unresolved
   packets of the batch that passed the block's summary, held in
   [w_sel] (their miss-set slots) and [w_sel_ff] (their field words),
   slots [0, w_k). A packet leaves the selection when it resolves, by
   swap-with-last, so the probe loop reads its flow straight from the
   selection with no resolved-or-not test. The probe count is NOT
   tallied per probe: a packet resolved under mask [ti] paid [ti + 1]
   probes and one that survives the whole walk paid [n_tables], both
   derivable after the fact — dropping the per-probe read-modify-write
   is what lets this loop beat the sequential scan even at 512 masks,
   where every subtable header still fits in cache and the dpcls
   amortisation alone has nothing to amortise. The selection size and
   the unresolved count live in fields of [t] (a [ref] passed between
   these functions would be heap-allocated, and the zero-alloc gate
   rounds at 1/1000 word per packet).

   The singleton test is made once per subtable per batch, not once per
   packet: a singleton's packets then run a tight compare loop against
   the descriptor, whose few words stay in L1 across the burst. *)
let resolve t out_entry out_probes out_tbl ti jj r =
  let sel = t.w_sel and sel_ff = t.w_sel_ff in
  let j = sel.(jj) in
  out_entry.(j) <- r;
  out_probes.(j) <- ti + 1;
  out_tbl.(j) <- ti;
  let last = t.w_k - 1 in
  sel.(jj) <- sel.(last);
  sel_ff.(jj) <- sel_ff.(last);
  t.w_k <- last;
  t.w_remaining <- t.w_remaining - 1

let walk_singleton t d r out_entry out_probes out_tbl ti =
  if Array.length d = 0 then begin
    (* the empty mask: its one entry matches every packet *)
    while t.w_k > 0 do
      resolve t out_entry out_probes out_tbl ti 0 r
    done
  end
  else begin
    (* the first triple lives in registers: most packets fail on it *)
    let f0 = d.(0) and m0 = d.(1) and k0 = d.(2) in
    let sel_ff = t.w_sel_ff in
    let jj = ref 0 in
    while !jj < t.w_k do
      let ff = Array.unsafe_get sel_ff !jj in
      if m0 land Array.unsafe_get ff f0 = k0 && desc_match d ff 3 then
        (* slot [jj] now holds the selection's former last packet *)
        resolve t out_entry out_probes out_tbl ti !jj r
      else incr jj
    done
  end

let walk_hashed t st tbl out_entry out_probes out_tbl ti =
  let sel_ff = t.w_sel_ff in
  let jj = ref 0 in
  while !jj < t.w_k do
    match find_hashed st tbl (Array.unsafe_get sel_ff !jj) with
    | Some _ as r -> resolve t out_entry out_probes out_tbl ti !jj r
    | None -> incr jj
  done

let walk_table t st out_entry out_probes out_tbl ti =
  if st.s_count = 1 then
    walk_singleton t st.s_desc st.s_arena.(0) out_entry out_probes out_tbl ti
  else
    match st.s_tbl with
    | Some tbl -> walk_hashed t st tbl out_entry out_probes out_tbl ti
    | None -> ()

let rec walk_block t out_entry out_probes out_tbl ti hi =
  if t.w_k > 0 && ti < hi then begin
    walk_table t t.arr.(ti) out_entry out_probes out_tbl ti;
    walk_block t out_entry out_probes out_tbl (ti + 1) hi
  end

(* Gather the unresolved packets of slots [lo, n) passing group
   summary [s] into the group selection. *)
let select_group t s fields lo n out_tbl =
  let gsel = t.w_gsel in
  let k = ref 0 in
  for j = lo to n - 1 do
    if out_tbl.(j) < 0 && desc_match s fields.(j) 0 then begin
      gsel.(!k) <- j;
      incr k
    end
  done;
  t.w_gk <- !k

(* Gather the packets of the group selection that are still unresolved
   and pass block summary [s] into the selection. *)
let select_block t s fields out_tbl =
  let gsel = t.w_gsel and sel = t.w_sel and sel_ff = t.w_sel_ff in
  let k = ref 0 in
  for jj = 0 to t.w_gk - 1 do
    let j = gsel.(jj) in
    if out_tbl.(j) < 0 then begin
      let ff = fields.(j) in
      if desc_match s ff 0 then begin
        sel.(!k) <- j;
        sel_ff.(!k) <- ff;
        incr k
      end
    end
  done;
  t.w_k <- !k

(* Per block of the current group: select the packets its summary
   admits and walk its subtables over them. *)
let rec walk_group t fields out_entry out_probes out_tbl b bhi =
  if t.w_remaining > 0 && b < bhi then begin
    select_block t t.blocks.(b) fields out_tbl;
    let first = b lsl block_bits in
    walk_block t out_entry out_probes out_tbl first (block_end t first);
    walk_group t fields out_entry out_probes out_tbl (b + 1) bhi
  end

(* Per group: select the packets its summary admits; if there are none,
   move on without testing any of its block summaries or loading any of
   its subtables. *)
let rec walk_tables t fields lo n out_entry out_probes out_tbl g =
  if t.w_remaining > 0 && g < n_groups t then begin
    select_group t t.groups.(g) fields lo n out_tbl;
    if t.w_gk > 0 then begin
      let b = g lsl group_bits in
      walk_group t fields out_entry out_probes out_tbl b
        (min (n_blocks t) (b + (1 lsl group_bits)))
    end;
    walk_tables t fields lo n out_entry out_probes out_tbl (g + 1)
  end

(* Pure walk of slots [lo, n): touches no statistics and mutates
   nothing. [out_entry.(j)] is the stored arena option (or [None]),
   [out_probes.(j)] the probe count the sequential scan would have paid,
   [out_tbl.(j)] the matching subtable index (-1 on a miss). The caller
   replays hit/miss bookkeeping per packet with {!commit_walk} /
   {!commit_walk_hinted}; entries are non-overlapping, so probe order
   across packets cannot change which entry wins.

   The kernel is chosen by the range's size. One packet has nothing to
   amortise, so it runs the sequential [scan]. From two packets on the
   walk is subtable-major: for each mask, probe every unresolved packet,
   then move to the next mask — the dpcls amortisation (each subtable's
   descriptor and table are loaded once per batch, not once per packet),
   with groups and blocks whose summary no unresolved packet passes
   skipped whole. *)
let walk_range t flows idx lo n out_entry out_probes out_tbl =
  if n - lo = 1 then begin
    let r = scan t (Flow.unsafe_fields flows.(idx.(lo))) 0 in
    out_entry.(lo) <- r;
    out_probes.(lo) <- t.scan_pos;
    out_tbl.(lo) <- (match r with Some _ -> t.scan_pos - 1 | None -> -1)
  end
  else begin
    if Array.length t.w_fields < n then begin
      t.w_fields <- Array.make n [||];
      t.w_sel <- Array.make n 0;
      t.w_sel_ff <- Array.make n [||];
      t.w_gsel <- Array.make n 0
    end;
    let fields = t.w_fields in
    for j = lo to n - 1 do
      fields.(j) <- Flow.unsafe_fields flows.(idx.(j));
      out_entry.(j) <- None;
      (* overwritten with the hit position on a hit; a packet that walks
         every subtable and misses paid them all, like the scan *)
      out_probes.(j) <- t.n_tables;
      out_tbl.(j) <- -1
    done;
    t.w_remaining <- n - lo;
    walk_tables t fields lo n out_entry out_probes out_tbl 0
  end

let walk_batch t flows ~idx ~n ~out_entry ~out_probes ~out_tbl =
  walk_range t flows idx 0 n out_entry out_probes out_tbl

(* Bring walk results up to date after one {!insert}. With no eviction
   the insert only added entry [e] under the subtable at [p] (replacing
   at most an entry of that subtable with the same masked key), so the
   first match of the sequential scan changes only where [e] matches at
   a position no later than the recorded one; a miss now pays for the
   current subtable count. An eviction removes entries and may compact
   the array, so the pending slots are walked again. *)
let patch_walk t flows ~idx ~lo ~n ~out_entry ~out_probes ~out_tbl =
  if t.ins_evicted then walk_range t flows idx lo n out_entry out_probes out_tbl
  else begin
    let p = t.ins_pos in
    let st = t.arr.(p) in
    let r = st.s_arena.(st.s_count - 1) in
    let kf =
      match r with Some e -> Flow.unsafe_fields e.key | None -> assert false
    in
    for j = lo to n - 1 do
      let q = out_tbl.(j) in
      if (q < 0 || p <= q)
         && key_match st.s_desc kf (Flow.unsafe_fields flows.(idx.(j))) 0
      then begin
        out_entry.(j) <- r;
        out_probes.(j) <- p + 1;
        out_tbl.(j) <- p
      end
      else if q < 0 then out_probes.(j) <- t.n_tables
    done
  end

let commit_walk t s entry ~now ~pkt_len ~probes ~tbl =
  (match entry with
   | Some e -> hit_entry t t.arr.(tbl) e ~now ~pkt_len ~probes
   | None -> miss t ~probes);
  s.s_probes <- probes

(* Hinted (kernel-flavour) commit of a walk result: try the mask the
   flow's {!Mask_cache} slot matched last time (one probe); otherwise
   commit the walk's result and refresh the hint. A correct hint makes a
   stable flow O(1) even with thousands of masks — until the cache's few
   hundred slots are thrashed. The hint is read {e live}, in packet
   order; on a hint hit the hint's entry is authoritative and returned
   (the same entry the walk found — entries are non-overlapping — but
   with 1 probe, not the scan position). A failed in-range hint adds its
   probe to the walk's count; an out-of-range hint (or the -1 "no hint"
   sentinel) never probed anything.

   The cache is synchronised with the subtable generation first: after a
   resort/compaction every cached index may point at a different mask,
   and with overlapping attack masks a stale hint could return a
   different entry than the scan would. Only valid while the cache has
   not been mutated since the walk ran. *)
let commit_walk_hinted t s cache flow entry ~now ~pkt_len ~probes ~tbl =
  Mask_cache.sync_generation cache t.generation;
  let h = Mask_cache.hint cache flow in
  let in_range = h >= 0 && h < t.n_tables in
  match if in_range then find_in_subtable t.arr.(h) flow else None with
  | Some e as r ->
    hit_entry t t.arr.(h) e ~now ~pkt_len ~probes:1;
    Mask_cache.note_hit cache;
    s.s_probes <- 1;
    r
  | None ->
    Mask_cache.note_miss cache;
    commit_walk t s entry ~now ~pkt_len
      ~probes:(if in_range then probes + 1 else probes) ~tbl;
    if tbl >= 0 then Mask_cache.record cache flow tbl;
    entry

(* Userspace-dpcls-style ranking: periodically sort subtables so the
   most-hit masks are probed first (OVS's pvector). Decays counts so
   the ordering tracks recent traffic. *)
let resort_by_hits t =
  let live = Array.sub t.arr 0 t.n_tables in
  let l = List.stable_sort (fun a b -> Int.compare b.s_hits a.s_hits)
      (Array.to_list live) in
  List.iter (fun st -> st.s_hits <- st.s_hits / 2) l;
  set_tables t l

(* Unlink [e] from a hashed subtable's table and move the arena's last
   entry into its cell (swap-with-last), redirecting the moved entry's
   hash slot to its new arena index. *)
let remove_hashed st tbl (e : entry) =
  let h = hash_key st e.key in
  (* Locate the hash slot pointing at [e] (physical identity — several
     arena cells can share a hash). *)
  let rec find_slot slot =
    if slot < 0 then assert false
    else begin
      match st.s_arena.(Flat_tbl.value tbl slot) with
      | Some x when x == e -> slot
      | _ -> find_slot (Flat_tbl.next tbl h slot)
    end
  in
  let slot = find_slot (Flat_tbl.find_first tbl h) in
  let idx = Flat_tbl.value tbl slot in
  Flat_tbl.remove_slot tbl slot;
  let last = st.s_count - 1 in
  if idx <> last then begin
    match st.s_arena.(last) with
    | Some moved as m ->
      st.s_arena.(idx) <- m;
      let hm = hash_key st moved.key in
      let rec fix s =
        if s < 0 then assert false
        else if Flat_tbl.value tbl s = last then Flat_tbl.set_value tbl s idx
        else fix (Flat_tbl.next tbl hm s)
      in
      fix (Flat_tbl.find_first tbl hm)
    | None -> assert false
  end

let remove_entry t st (e : entry) =
  (match st.s_tbl with
   | Some tbl -> remove_hashed st tbl e
   | None -> assert (match st.s_arena.(0) with Some x -> x == e | None -> false));
  let last = st.s_count - 1 in
  st.s_arena.(last) <- None;
  st.s_count <- last;
  if last = 1 then begin
    (* back to a singleton: drop the table, load the survivor's key *)
    st.s_tbl <- None;
    match st.s_arena.(0) with
    | Some survivor -> set_desc_key st.s_desc survivor.key
    | None -> assert false
  end;
  e.alive <- false;
  t.deaths <- t.deaths + 1;
  t.n <- t.n - 1

let reset_pool t =
  Array.fill t.pool 0 t.pool_n vacant;
  t.pool_n <- 0;
  Flat_tbl.clear t.pool_by_mask

let pool_add t st =
  if t.pool_n = Array.length t.pool then begin
    let a = Array.make (max 8 (2 * t.pool_n)) vacant in
    Array.blit t.pool 0 a 0 t.pool_n;
    t.pool <- a
  end;
  st.s_pos <- -1;
  t.pool.(t.pool_n) <- st;
  Flat_tbl.add t.pool_by_mask st.s_hash t.pool_n;
  t.pool_n <- t.pool_n + 1

(* Drop the subtables the sweep emptied into a fresh pool. *)
let drop_empty_subtables t =
  reset_pool t;
  let any_dead = ref false in
  iter_subtables (fun st -> if st.s_count = 0 then any_dead := true) t;
  if !any_dead then begin
    let live = ref [] in
    iter_subtables
      (fun st -> if st.s_count > 0 then live := st :: !live else pool_add t st)
      t;
    set_tables t (List.rev !live)
  end

let find_pooled t w h =
  find_in t.pool_by_mask t.pool w h (Flat_tbl.find_first t.pool_by_mask h)

(* An empty subtable for [mask] (words [w], hash [h]): the pooled one
   with that mask if the last sweep emptied one, else a new one owning a
   copy of [mask], which may be borrowed. A pooled subtable already has
   no table and only [None] arena cells (its last removal left them so);
   clearing its hit count makes it what a new one would be. *)
let take_subtable t mask w h =
  let i = find_pooled t w h in
  if i >= 0 then begin
    let st = t.pool.(i) in
    t.pool.(i) <- vacant;
    st.s_hits <- 0;
    st
  end
  else
    { s_pos = -1; s_desc = desc_of_mask mask; s_mask = Mask.copy mask;
      s_hash = h; s_tbl = None; s_arena = [||]; s_count = 0; s_hits = 0 }

(* LRU eviction used when the flow limit is hit: evict the oldest ~5% so
   insertion stays amortised-cheap, mimicking the revalidator's reaction
   to flow-limit pressure.

   Bounded selection: a size-k max-heap over [last_used] (root = the
   youngest of the k candidates) scanned once over the live entries —
   O(n log k) and O(k) space, instead of materialising an (st, e) pair
   per entry and full-sorting all n to drop 5%. *)
let evict_lru t =
  let k = max 1 (t.n / 20) in
  let heap_t = Array.make k 0. in             (* last_used, heap-ordered *)
  let heap_st = Array.make k None in          (* owning subtable *)
  let heap_e : entry option array = Array.make k None in
  let size = ref 0 in
  let swap i j =
    let tt = heap_t.(i) and st = heap_st.(i) and e = heap_e.(i) in
    heap_t.(i) <- heap_t.(j); heap_st.(i) <- heap_st.(j); heap_e.(i) <- heap_e.(j);
    heap_t.(j) <- tt; heap_st.(j) <- st; heap_e.(j) <- e
  in
  let rec sift_up i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if heap_t.(p) < heap_t.(i) then begin swap p i; sift_up p end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < !size && heap_t.(l) > heap_t.(i) then l else i in
    let m = if r < !size && heap_t.(r) > heap_t.(m) then r else m in
    if m <> i then begin swap i m; sift_down m end
  in
  let offer st e =
    if !size < k then begin
      heap_t.(!size) <- e.last_used;
      heap_st.(!size) <- Some st;
      heap_e.(!size) <- Some e;
      incr size;
      sift_up (!size - 1)
    end
    else if e.last_used < heap_t.(0) then begin
      heap_t.(0) <- e.last_used;
      heap_st.(0) <- Some st;
      heap_e.(0) <- Some e;
      sift_down 0
    end
  in
  iter_subtables (fun st -> iter_entries (fun e -> offer st e) st) t;
  for i = 0 to !size - 1 do
    match (heap_st.(i), heap_e.(i)) with
    | Some st, Some e ->
      remove_entry t st e;
      t.evicted <- t.evicted + 1
    | _ -> ()
  done;
  drop_empty_subtables t

let has_mask t mask = position t mask >= 0

let insert t ~key ~mask ~action ~revision ~now ?origin () =
  if now < t.floor.(0) then t.floor.(0) <- now;
  let evicted = t.n >= t.cfg.max_entries in
  if evicted then evict_lru t;
  let w = Mask.unsafe_words mask in
  let h = mask_hash w 0 0 in
  let p = find_pos t w h in
  let st =
    if p >= 0 then t.arr.(p)
    else begin
      let st = take_subtable t mask w h in
      push_subtable t st;
      Flat_tbl.add t.by_mask h st.s_pos;
      t.masks_created <- t.masks_created + 1;
      st
    end
  in
  (match find_in_subtable st key with
   | Some old -> remove_entry t st old
   | None -> ());
  let e =
    { key; mask = st.s_mask; action; revision; created = now; origin;
      last_used = now; n_packets = 0; n_bytes = 0; alive = true }
  in
  let cap = Array.length st.s_arena in
  if st.s_count = cap then begin
    (* a singleton's arena is one cell; growth doubles from there *)
    let na = Array.make (max 1 (cap * 2)) None in
    Array.blit st.s_arena 0 na 0 cap;
    st.s_arena <- na
  end;
  let i = st.s_count in
  st.s_arena.(i) <- Some e;
  st.s_count <- i + 1;
  (match st.s_tbl with
   | Some tbl -> Flat_tbl.add tbl (hash_key st key) i
   | None when i = 0 -> set_desc_key st.s_desc key
   | None ->
     (* the second entry: index both, in arena order *)
     let tbl = Flat_tbl.create () in
     (match st.s_arena.(0) with
      | Some first -> Flat_tbl.add tbl (hash_key st first.key) 0
      | None -> assert false);
     Flat_tbl.add tbl (hash_key st key) i;
     st.s_tbl <- Some tbl);
  merge_entry t st e;
  t.n <- t.n + 1;
  t.ins_pos <- st.s_pos;
  t.ins_evicted <- evicted;
  e

let revalidate t ~now ?(keep = fun _ -> true) () =
  let evicted = ref 0 in
  t.floor.(0) <- infinity;
  for i = 0 to t.n_tables - 1 do
    let st = t.arr.(i) in
    (* Downward, so a swap-with-last removal only moves an entry that
       was already visited. *)
    for j = st.s_count - 1 downto 0 do
      match st.s_arena.(j) with
      | Some e when now -. e.last_used > t.cfg.idle_timeout || not (keep e) ->
        remove_entry t st e;
        t.evicted <- t.evicted + 1;
        incr evicted
      | Some e ->
        if e.last_used < t.floor.(0) then t.floor.(0) <- e.last_used
      | None -> assert false
    done
  done;
  drop_empty_subtables t;
  !evicted

let flush t =
  iter_subtables (fun st -> iter_entries (fun e -> e.alive <- false) st) t;
  t.deaths <- t.deaths + t.n;
  t.floor.(0) <- infinity;
  t.n <- 0;
  reset_pool t;
  set_tables t []

(* --- Invariants -------------------------------------------------------

   The structural facts the probe paths rely on, checked explicitly so a
   model test can assert them after every operation. *)

(* Every bit [summary] pins is pinned by the entry with descriptor [d]
   and key fields [kf] too, to the same value — so every packet the
   entry matches passes the summary. *)
let pins_within summary d kf =
  let ok = ref true in
  for k = 0 to (Array.length summary / 3) - 1 do
    let f = summary.(3 * k) and m = summary.((3 * k) + 1) in
    if m land lnot (desc_mask_on d f 0) <> 0
       || m land kf.(f) <> summary.((3 * k) + 2)
    then ok := false
  done;
  !ok

let check t =
  let exception Broken of string in
  let fail fmt = Printf.ksprintf (fun msg -> raise (Broken msg)) fmt in
  try
    let count = ref 0 in
    for i = 0 to t.n_tables - 1 do
      let st = t.arr.(i) in
      if st.s_pos <> i then fail "subtable %d: s_pos is %d" i st.s_pos;
      if st.s_count < 1 then fail "subtable %d: no entry" i;
      if position t st.s_mask <> i then
        fail "subtable %d: by_mask finds its mask at %d" i
          (position t st.s_mask);
      count := !count + st.s_count;
      iter_entries
        (fun e ->
          let kf = Flow.unsafe_fields e.key in
          if e.mask != st.s_mask then
            fail "subtable %d: an entry does not share its mask" i;
          if st.s_count = 1 then
            for k = 0 to (Array.length st.s_desc / 3) - 1 do
              let f = st.s_desc.(3 * k) and m = st.s_desc.((3 * k) + 1) in
              if st.s_desc.((3 * k) + 2) <> m land kf.(f) then
                fail "subtable %d: singleton key word %d is stale" i k
            done;
          if not (pins_within t.blocks.(i lsr block_bits) st.s_desc kf) then
            fail "subtable %d: an entry fails block %d's summary" i
              (i lsr block_bits);
          if not (pins_within t.groups.(i lsr group_shift) st.s_desc kf) then
            fail "subtable %d: an entry fails group %d's summary" i
              (i lsr group_shift))
        st
    done;
    if Flat_tbl.length t.by_mask <> t.n_tables then
      fail "by_mask holds %d masks, the scan %d"
        (Flat_tbl.length t.by_mask) t.n_tables;
    for i = 0 to t.pool_n - 1 do
      let st = t.pool.(i) in
      if st != vacant then begin
        if st.s_pos <> -1 || st.s_count <> 0 || Option.is_some st.s_tbl
           || Array.exists Option.is_some st.s_arena
        then fail "pool slot %d: not an empty, unlinked subtable" i;
        let w = Mask.unsafe_words st.s_mask in
        let h = mask_hash w 0 0 in
        if h <> st.s_hash
           || find_pooled t w h <> i
        then
          fail "pool slot %d: pool_by_mask does not find its mask" i
      end
    done;
    if !count <> t.n then fail "n is %d, subtables hold %d" t.n !count;
    Ok ()
  with Broken msg -> Error msg

let n_entries t = t.n
let may_have_idle t ~now = now -. t.floor.(0) > t.cfg.idle_timeout
let deaths t = t.deaths
let n_masks t = t.n_tables

let masks t =
  List.init t.n_tables (fun i -> t.arr.(i).s_mask)

type mask_stat = {
  ms_mask : Mask.t;
  ms_entries : int;
  ms_hits : int;
  ms_capacity : int;
  ms_mean_probe : float;
  ms_max_probe : int;
}

(* A table-less subtable reports what a minimum-capacity table holding
   its entries would: its one entry sits in its home slot. *)
let min_capacity = Flat_tbl.capacity (Flat_tbl.create ())

let subtable_stats t =
  List.init t.n_tables (fun i ->
      let st = t.arr.(i) in
      let capacity, (mean, maxp) =
        match st.s_tbl with
        | Some tbl -> (Flat_tbl.capacity tbl, Flat_tbl.probe_stats tbl)
        | None when st.s_count = 1 -> (min_capacity, (1., 1))
        | None -> (min_capacity, (0., 0))
      in
      { ms_mask = st.s_mask; ms_entries = st.s_count; ms_hits = st.s_hits;
        ms_capacity = capacity; ms_mean_probe = mean; ms_max_probe = maxp })

let entries t =
  let acc = ref [] in
  for i = t.n_tables - 1 downto 0 do
    let st = t.arr.(i) in
    for j = st.s_count - 1 downto 0 do
      match st.s_arena.(j) with
      | Some e -> acc := e :: !acc
      | None -> ()
    done
  done;
  !acc

let pp_entry ~now ppf e =
  let first = ref true in
  List.iter
    (fun f ->
      let m = Mask.get e.mask f in
      if m <> 0 then begin
        if not !first then Format.pp_print_char ppf ',';
        first := false;
        let v = Flow.get e.key f land m in
        let pp_value ppf v =
          match f with
          | Field.Ip_src | Field.Ip_dst ->
            Pi_pkt.Ipv4_addr.pp ppf (Int32.of_int v)
          | Field.In_port | Field.Eth_src | Field.Eth_dst | Field.Eth_type
          | Field.Vlan | Field.Ip_proto | Field.Ip_tos | Field.Ip_ttl
          | Field.Tp_src | Field.Tp_dst | Field.Tcp_flags ->
            Format.fprintf ppf "%d" v
        in
        match Mask.prefix_len e.mask f with
        | Some n when n = Field.width f ->
          Format.fprintf ppf "%s=%a" (Field.name f) pp_value v
        | Some n -> Format.fprintf ppf "%s=%a/%d" (Field.name f) pp_value v n
        | None -> Format.fprintf ppf "%s=%a&0x%x" (Field.name f) pp_value v m
      end)
    Field.all;
  if !first then Format.pp_print_string ppf "match=any";
  (* dpctl prints how long ago the entry was last hit, not an absolute
     stamp; entries that never carried a packet show "never". *)
  Format.fprintf ppf " packets:%d bytes:%d " e.n_packets e.n_bytes;
  if e.n_packets = 0 then Format.pp_print_string ppf "used:never"
  else Format.fprintf ppf "used:%.2fs" (Float.max 0. (now -. e.last_used));
  Format.fprintf ppf " actions:%s" (Action.to_string e.action);
  match e.origin with
  | Some o -> Format.fprintf ppf " origin(%a)" Provenance.pp_origin o
  | None -> ()

let dump ?max ~now ppf t =
  let printed = ref 0 in
  let limit = match max with Some m -> m | None -> max_int in
  iter_subtables
    (fun st ->
      iter_entries
        (fun e ->
          if !printed < limit then begin
            Format.fprintf ppf "%a@." (pp_entry ~now) e;
            incr printed
          end)
        st)
    t;
  if t.n > limit then Format.fprintf ppf "... (%d more)@." (t.n - limit)

let hits t = t.hits
let misses t = t.misses
let total_probes t = t.probes
let masks_created t = t.masks_created
let evicted t = t.evicted

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.probes <- 0;
  t.masks_created <- 0;
  t.evicted <- 0
