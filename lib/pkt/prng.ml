(* The state is 8 bytes, not a mutable [int64] field: storing a boxed
   field allocates on every draw, and the EMC draws once per upcall.
   [Bytes.get_int64_ne]/[set_int64_ne] are unboxed primitives, and
   [next] is inlined, so [int], [bits] and [bool] allocate nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 seed;
  b

let copy = Bytes.copy

(* SplitMix64 finaliser (Steele et al., "Fast splittable pseudorandom
   number generators"). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let int64 t = next t

let split t = create (next t)

let int32 t = Int64.to_int32 (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62,
     so bias is negligible for simulation purposes. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bits t n =
  if n < 0 || n > 30 then invalid_arg "Prng.bits: n must be in [0, 30]";
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next t) (64 - n))

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float t = Float.of_int (bits53 t) *. 0x1.0p-53

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = float t in
  (* u = 0 would yield infinity; nudge it. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
