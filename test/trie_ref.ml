(* The bit-per-node prefix trie: one node per bit of every stored
   prefix. It is the reference model the path-compressed
   [Pi_classifier.Trie] is tested against (test_trie.ml); nothing else
   uses it. *)

type node = {
  mutable n_end : int;    (* prefixes terminating at this node *)
  mutable below : int;    (* prefixes in this subtree, including here *)
  mutable zero : node option;
  mutable one : node option;
}

type t = { width : int; root : node }

let new_node () = { n_end = 0; below = 0; zero = None; one = None }

(* Values are immediate ints, like Flow/Mask fields: 62 bits is the
   widest non-negative prefix value a native int holds, and far beyond
   the 48-bit classifier fields the tries are built over. *)
let max_width = 62

let create ~width =
  if width < 1 || width > max_width then invalid_arg "Trie.create";
  { width; root = new_node () }

let width t = t.width

let bit_at t value d = (value lsr (t.width - 1 - d)) land 1

let check_len t len name =
  if len < 0 || len > t.width then invalid_arg name

let insert t ~value ~len =
  check_len t len "Trie.insert";
  let rec go node d =
    node.below <- node.below + 1;
    if d = len then node.n_end <- node.n_end + 1
    else begin
      let child =
        if bit_at t value d = 0 then
          match node.zero with
          | Some c -> c
          | None -> let c = new_node () in node.zero <- Some c; c
        else
          match node.one with
          | Some c -> c
          | None -> let c = new_node () in node.one <- Some c; c
      in
      go child (d + 1)
    end
  in
  go t.root 0

let mem t ~value ~len =
  check_len t len "Trie.mem";
  let rec go node d =
    if d = len then node.n_end > 0
    else
      let child = if bit_at t value d = 0 then node.zero else node.one in
      match child with None -> false | Some c -> go c (d + 1)
  in
  go t.root 0

let remove t ~value ~len =
  check_len t len "Trie.remove";
  if not (mem t ~value ~len) then invalid_arg "Trie.remove: prefix not present";
  let rec go node d =
    node.below <- node.below - 1;
    if d = len then node.n_end <- node.n_end - 1
    else begin
      let zero_side = bit_at t value d = 0 in
      let child =
        match (if zero_side then node.zero else node.one) with
        | Some c -> c
        | None -> assert false
      in
      go child (d + 1);
      if child.below = 0 then
        if zero_side then node.zero <- None else node.one <- None
    end
  in
  go t.root 0

let is_empty t = t.root.below = 0

let size t = t.root.below

type lookup_result = { plens : bool array; mutable checked : int }

let result ~width = { plens = Array.make (width + 1) false; checked = 0 }

(* Top-level recursion with explicit arguments: an inner [let rec]
   closing over [plens] would allocate a closure per lookup, and
   [lookup_into] runs once per (field, upcall) on the slow path. *)
let rec lookup_go t value plens node d =
  if node.n_end > 0 then plens.(d) <- true;
  if d = t.width then t.width
  else begin
    let child = if bit_at t value d = 0 then node.zero else node.one in
    match child with
    | None -> min t.width (d + 1)
    | Some c -> lookup_go t value plens c (d + 1)
  end

(* Fill a caller-owned scratch result: zero allocation. *)
let lookup_into t value r =
  if Array.length r.plens <> t.width + 1 then invalid_arg "Trie.lookup_into";
  Array.fill r.plens 0 (t.width + 1) false;
  r.checked <- lookup_go t value r.plens t.root 0

let sort_prefixes l =
  List.sort
    (fun (v1, l1) (v2, l2) ->
      match Int.compare l1 l2 with
      | 0 -> Int.compare v1 v2
      | c -> c)
    l

let complement t =
  let acc = ref [] in
  let set_bit value d b =
    if b = 0 then value else value lor (1 lsl (t.width - 1 - d))
  in
  let rec go node value d =
    if node.n_end > 0 then ()        (* this whole prefix is covered *)
    else if node.below = 0 then acc := (value, d) :: !acc
    else begin
      (* Some descendant stores a prefix, so descend; an absent child
         subtree is entirely uncovered and maximal. *)
      (match node.zero with
       | None -> acc := (set_bit value d 0, d + 1) :: !acc
       | Some c -> go c (set_bit value d 0) (d + 1));
      match node.one with
      | None -> acc := (set_bit value d 1, d + 1) :: !acc
      | Some c -> go c (set_bit value d 1) (d + 1)
    end
  in
  go t.root 0 0;
  sort_prefixes !acc

let prefixes t =
  let acc = ref [] in
  let set_bit value d b =
    if b = 0 then value else value lor (1 lsl (t.width - 1 - d))
  in
  let rec go node value d =
    if node.n_end > 0 then acc := (value, d) :: !acc;
    (match node.zero with
     | None -> ()
     | Some c -> go c (set_bit value d 0) (d + 1));
    match node.one with
    | None -> ()
    | Some c -> go c (set_bit value d 1) (d + 1)
  in
  go t.root 0 0;
  sort_prefixes !acc
