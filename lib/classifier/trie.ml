(* A path-compressed binary trie, the shape of OVS's classifier.c
   tries. A node stands for the bit string from the root to its end:
   [seg] holds the last [seg_len] bits of that string (right-aligned),
   the ones between its parent's end and its own. The root has an empty
   segment. Only nodes where a stored prefix ends, or where the path
   branches, exist: a non-root node with no prefix of its own has two
   children, so a chain of one-child bits is one node and a lookup
   compares a whole chain with one xor instead of walking it bit by
   bit.

   A child hangs off its parent's edge for the first bit of its
   segment, so the first bit of a child's segment always agrees with a
   value that chose that edge. *)
type node = {
  mutable seg : int;
  mutable seg_len : int;
  mutable n_end : int;    (* prefixes terminating at this node *)
  mutable below : int;    (* prefixes in this subtree, including here *)
  mutable zero : node option;
  mutable one : node option;
}

type t = { width : int; root : node }

let node ~seg ~seg_len =
  { seg; seg_len; n_end = 0; below = 0; zero = None; one = None }

(* Values are immediate ints, like Flow/Mask fields: 62 bits is the
   widest non-negative prefix value a native int holds, and far beyond
   the 48-bit classifier fields the tries are built over. *)
let max_width = 62

let create ~width =
  if width < 1 || width > max_width then invalid_arg "Trie.create";
  { width; root = node ~seg:0 ~seg_len:0 }

let width t = t.width

let bit_at t value d = (value lsr (t.width - 1 - d)) land 1

(* Bits [d, d + len) of [value], right-aligned. *)
let[@inline] bits_at t value d len =
  (value lsr (t.width - d - len)) land ((1 lsl len) - 1)

(* Number of significant bits of [x], [0 < x < 2^62], without the
   data-dependent branches of a binary search: one more than the
   exponent of [x] as a double. A value that close below a power of two
   rounds up to it, which the shift test corrects. *)
let bit_length x =
  let e =
    Int64.to_int
      (Int64.shift_right_logical (Int64.bits_of_float (Float.of_int x)) 52)
    - 1022
  in
  if x lsr (e - 1) = 0 then e - 1 else e

let child node b = if b = 0 then node.zero else node.one

let set_child node b c = if b = 0 then node.zero <- c else node.one <- c

let check_len t len name =
  if len < 0 || len > t.width then invalid_arg name

(* Leading bits on which [c]'s segment agrees with [value] from depth
   [d], looking at no more than [m] bits. *)
let common t c value d m =
  let x = (c.seg lsr (c.seg_len - m)) lxor bits_at t value d m in
  if x = 0 then m else m - bit_length x

let insert t ~value ~len =
  check_len t len "Trie.insert";
  (* [n] is a node ending at depth [d] on the path of [value]. *)
  let rec go n d =
    n.below <- n.below + 1;
    if d = len then n.n_end <- n.n_end + 1
    else begin
      let b = bit_at t value d in
      match child n b with
      | None ->
        let leaf = node ~seg:(bits_at t value d (len - d)) ~seg_len:(len - d) in
        leaf.n_end <- 1;
        leaf.below <- 1;
        set_child n b (Some leaf)
      | Some c ->
        let eq = common t c value d (min c.seg_len (len - d)) in
        if eq = c.seg_len then go c (d + c.seg_len)
        else begin
          (* Split [c] after its first [eq] bits (at least the edge bit):
             the new node ends at [d + eq] and [c] keeps the rest. *)
          let rest = c.seg_len - eq in
          let mid = node ~seg:(c.seg lsr rest) ~seg_len:eq in
          mid.below <- c.below;
          c.seg <- c.seg land ((1 lsl rest) - 1);
          c.seg_len <- rest;
          set_child mid ((c.seg lsr (rest - 1)) land 1) (Some c);
          set_child n b (Some mid);
          go mid (d + eq)
        end
    end
  in
  go t.root 0

(* The node ending exactly at depth [len] on [value]'s path, if any. *)
let rec find t value len n d =
  if d = len then Some n
  else
    match child n (bit_at t value d) with
    | None -> None
    | Some c ->
      if c.seg_len <= len - d && common t c value d c.seg_len = c.seg_len
      then find t value len c (d + c.seg_len)
      else None

let mem t ~value ~len =
  check_len t len "Trie.mem";
  match find t value len t.root 0 with Some n -> n.n_end > 0 | None -> false

(* Restore the compression invariant at non-root [n] after a removal
   below or at it: drop it if its subtree is empty, fold it into its
   only child if it neither stores a prefix nor branches. *)
let compact n =
  if n.below = 0 then None
  else if n.n_end > 0 then Some n
  else
    match (n.zero, n.one) with
    | Some c, None | None, Some c ->
      c.seg <- (n.seg lsl c.seg_len) lor c.seg;
      c.seg_len <- n.seg_len + c.seg_len;
      Some c
    | _ -> Some n

let remove t ~value ~len =
  check_len t len "Trie.remove";
  if not (mem t ~value ~len) then invalid_arg "Trie.remove: prefix not present";
  let rec go n d =
    n.below <- n.below - 1;
    if d = len then n.n_end <- n.n_end - 1
    else begin
      let b = bit_at t value d in
      match child n b with
      | Some c ->
        go c (d + c.seg_len);
        set_child n b (compact c)
      | None -> assert false
    end
  in
  go t.root 0

let is_empty t = t.root.below = 0

let size t = t.root.below

type lookup_result = { mutable plens : int; mutable checked : int }

let result () = { plens = 0; checked = 0 }

let[@inline] covers r n = r.plens land (1 lsl n) <> 0

(* Top-level recursion with explicit arguments: an inner [let rec]
   would allocate a closure per lookup, and [lookup_into] runs once per
   (field, upcall) on the slow path. [n] ends at depth [d] and agrees
   with [value] up to there. A mismatch inside a child's segment at bit
   [eq] means the stored paths share the first [d + eq] bits with
   [value], so one more bit settles it. *)
let rec lookup_go t value r n d =
  if n.n_end > 0 then r.plens <- r.plens lor (1 lsl d);
  if d = t.width then r.checked <- t.width
  else
    match child n (bit_at t value d) with
    | None -> r.checked <- d + 1
    | Some c ->
      let eq = common t c value d c.seg_len in
      if eq = c.seg_len then lookup_go t value r c (d + c.seg_len)
      else r.checked <- d + eq + 1

(* Fill a caller-owned scratch result: zero allocation. *)
let lookup_into t value r =
  r.plens <- 0;
  lookup_go t value r t.root 0

let lookup t value =
  let r = result () in
  lookup_into t value r;
  r

let longest_match r =
  if r.plens = 0 then -1
  else if r.plens < 0 then max_width   (* bit 62 is the sign bit *)
  else bit_length r.plens - 1

let sort_prefixes l =
  List.sort
    (fun (v1, l1) (v2, l2) ->
      match Int.compare l1 l2 with
      | 0 -> Int.compare v1 v2
      | c -> c)
    l

let set_bit t value d = value lor (1 lsl (t.width - 1 - d))

(* The first [len] bits of [value], the rest cleared. *)
let keep t value len = value land lnot ((1 lsl (t.width - len)) - 1)

(* The left-aligned path of child [c], hanging off an edge at depth
   [d] of the path [value]. *)
let extend t c value d = value lor (c.seg lsl (t.width - d - c.seg_len))

let complement t =
  let acc = ref [] in
  let missing value len = acc := (value, len) :: !acc in
  (* [n] ends at depth [e]; its path [value] is not covered yet. *)
  let rec at_node n value e =
    if n.n_end > 0 then ()        (* this whole prefix is covered *)
    else if n.below = 0 then missing value e
    else begin
      (* A prefix-less node branches (or is the root): an absent edge
         is an entirely uncovered, maximal subtree. *)
      (match n.zero with
       | None -> missing value (e + 1)
       | Some c -> below c value e);
      match n.one with
      | None -> missing (set_bit t value e) (e + 1)
      | Some c -> below c value e
    end
  and below c value d =
    let value = extend t c value d in
    let e = d + c.seg_len in
    (* Every segment bit after the edge bit stands for a one-child
       node of the uncompressed trie: its sibling is missing. *)
    for k = d + 1 to e - 1 do
      missing (keep t value (k + 1) lxor (1 lsl (t.width - 1 - k))) (k + 1)
    done;
    at_node c value e
  in
  at_node t.root 0 0;
  sort_prefixes !acc

let prefixes t =
  let acc = ref [] in
  let rec at_node n value e =
    if n.n_end > 0 then acc := (value, e) :: !acc;
    Option.iter (fun c -> at_node c (extend t c value e) (e + c.seg_len)) n.zero;
    Option.iter (fun c -> at_node c (extend t c value e) (e + c.seg_len)) n.one
  in
  at_node t.root 0 0;
  sort_prefixes !acc

let pp ppf t =
  Format.fprintf ppf "trie(width %d, %d prefixes)" t.width (size t)
