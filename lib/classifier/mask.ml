(* Same unboxed representation as Flow: one immediate int of mask bits
   per field, so every probe-path operation below is a native [land]/
   [lor] loop with zero allocation. *)

type t = int array

let full_of_field i = (1 lsl Field.width (Field.of_index i)) - 1

let full = Array.init Field.count full_of_field

let empty = Array.make Field.count 0

let exact = Array.copy full

let get t f = t.(Field.index f)

let unsafe_words t = t

let with_field t f v =
  let a = Array.copy t in
  let i = Field.index f in
  a.(i) <- v land full.(i);
  a

let with_exact t f = with_field t f (-1)

let prefix_mask f n =
  let w = Field.width f in
  if n < 0 || n > w then invalid_arg "Mask.with_prefix";
  if n = 0 then 0
  else ((-1) lsl (w - n)) land full.(Field.index f)

let with_prefix t f n = with_field t f (prefix_mask f n)

(* A prefix mask is a contiguous run of ones anchored at the top of the
   field, so the candidate length is width minus trailing zeros — one
   popcount, not a linear scan over every possible length. *)
let prefix_len t f =
  let v = get t f in
  if v = 0 then Some 0
  else begin
    let n = Field.width f - Bits.trailing_zeros v in
    if v = prefix_mask f n then Some n else None
  end

let union a b = Array.init Field.count (fun i -> a.(i) lor b.(i))

(* As in Flow: the per-field loops are top-level recursive functions
   with explicit arguments, not closures — an inner [let rec] capturing
   the arrays would allocate on every probe. *)
let rec is_subset_from a b i =
  i = Field.count || (a.(i) land b.(i) = a.(i) && is_subset_from a b (i + 1))

let is_subset a b = is_subset_from a b 0

let rec is_empty_from t i =
  i = Field.count || (t.(i) = 0 && is_empty_from t (i + 1))

let is_empty t = is_empty_from t 0

let fields t = List.filter (fun f -> get t f <> 0) Field.all

let apply t k =
  let kf = Flow.unsafe_fields k in
  let r = Array.make Field.count 0 in
  for i = 0 to Field.count - 1 do
    r.(i) <- t.(i) land kf.(i)
  done;
  Flow.unsafe_of_fields r

let rec masked_eq_from t af bf i =
  i = Field.count
  || (let m = Array.unsafe_get t i in
      m land Array.unsafe_get af i = m land Array.unsafe_get bf i
      && masked_eq_from t af bf (i + 1))

let matches t ~key flow =
  masked_eq_from t (Flow.unsafe_fields key) (Flow.unsafe_fields flow) 0

let copy = Array.copy

let rec equal_from (a : int array) (b : int array) i =
  i = Field.count || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal a b = equal_from a b 0

let rec compare_from a b i =
  if i = Field.count then 0
  else match Int.compare a.(i) b.(i) with
    | 0 -> compare_from a b (i + 1)
    | c -> c

let compare a b = compare_from a b 0

let hash t =
  let h = ref 0 in
  for i = 0 to Field.count - 1 do
    h := Bits.mix !h t.(i)
  done;
  Bits.finalize !h

(* [hash_masked m k = Flow.hash (apply m k)] fused into one pass: the
   masked key is never materialised. This is the inner loop of every
   megaflow subtable probe and TSS stage check. Every Mask.t and Flow
   field array has length [Field.count] by construction, so the unsafe
   accesses are bounded. *)
let hash_masked t k =
  let kf = Flow.unsafe_fields k in
  let h = ref 0 in
  for i = 0 to Field.count - 1 do
    h := Bits.mix !h (Array.unsafe_get t i land Array.unsafe_get kf i)
  done;
  Bits.finalize !h

let equal_masked t a b =
  masked_eq_from t (Flow.unsafe_fields a) (Flow.unsafe_fields b) 0

(* Support-restricted probe operations: a subtable computes [support]
   of its mask once, and every probe then touches only the set fields.
   The resulting hash is deliberately NOT [hash_masked] (skipped fields
   would have mixed zeros) — it only has to agree between the inserts
   and the probes of one subtable, and it does by construction. *)
let support t =
  let n = ref 0 in
  for i = 0 to Field.count - 1 do
    if t.(i) <> 0 then incr n
  done;
  let s = Array.make !n 0 in
  let j = ref 0 in
  for i = 0 to Field.count - 1 do
    if t.(i) <> 0 then begin
      s.(!j) <- i;
      incr j
    end
  done;
  s

let hash_masked_on s t k =
  let kf = Flow.unsafe_fields k in
  let h = ref 0 in
  for j = 0 to Array.length s - 1 do
    let i = Array.unsafe_get s j in
    h := Bits.mix !h (Array.unsafe_get t i land Array.unsafe_get kf i)
  done;
  Bits.finalize !h

let rec masked_eq_on s t af bf j =
  j < 0
  || (let i = Array.unsafe_get s j in
      let m = Array.unsafe_get t i in
      m land Array.unsafe_get af i = m land Array.unsafe_get bf i
      && masked_eq_on s t af bf (j - 1))

let equal_masked_on s t a b =
  masked_eq_on s t (Flow.unsafe_fields a) (Flow.unsafe_fields b)
    (Array.length s - 1)

let pp ppf t =
  if is_empty t then Format.pp_print_string ppf "any"
  else begin
    let first = ref true in
    List.iter
      (fun f ->
        let v = get t f in
        if v <> 0 then begin
          if not !first then Format.pp_print_char ppf ',';
          first := false;
          match prefix_len t f with
          | Some n -> Format.fprintf ppf "%s/%d" (Field.name f) n
          | None -> Format.fprintf ppf "%s&0x%x" (Field.name f) v
        end)
      Field.all
  end

module Builder = struct
  type nonrec t = int array

  let create () = Array.make Field.count 0

  (* A loop, not [Array.fill]: that is a C call, which costs more than
     these few stores on a slow-path lookup. *)
  let reset t =
    for i = 0 to Field.count - 1 do
      Array.unsafe_set t i 0
    done

  let add_mask t (m : int array) =
    for i = 0 to Field.count - 1 do
      t.(i) <- t.(i) lor m.(i)
    done

  (* [add_mask] over [s = support m]: the words outside it are 0. *)
  let add_mask_on t s (m : int array) =
    for j = 0 to Array.length s - 1 do
      let i = Array.unsafe_get s j in
      Array.unsafe_set t i (Array.unsafe_get t i lor Array.unsafe_get m i)
    done

  let add_prefix t f n =
    let i = Field.index f in
    t.(i) <- t.(i) lor prefix_mask f n

  let add_exact t f =
    let i = Field.index f in
    t.(i) <- full.(i)

  let freeze t = Array.copy t
  let borrow t = t
end
