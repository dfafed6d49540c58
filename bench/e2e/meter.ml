(* Clock, latency samples and summary statistics for the harness.

   Everything that runs once per batch is allocation-free, so the
   harness adds nothing to the minor-heap words it measures. *)

(* CLOCK_MONOTONIC in ns. The unboxed [int64] external converts straight
   to an immediate [int]: no allocation per read. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Latency samples in one preallocated int array. When the array fills,
   every other sample is dropped and from then on only every [stride]-th
   sample is kept: a uniform systematic subsample, so a fast or long run
   needs bounded memory and never allocates. The array is kept small:
   every major GC cycle scans it, and in an allocating workload that
   work would land in the measured operations. *)
type samples = {
  buf : int array;
  mutable len : int;
  mutable stride : int;
  mutable seen : int;
}

let samples ?(capacity = 1 lsl 16) () =
  { buf = Array.make capacity 0; len = 0; stride = 1; seen = 0 }

let add s v =
  if s.seen mod s.stride = 0 then begin
    if s.len = Array.length s.buf then begin
      (* [len] is the capacity, a power of two, and [seen] is
         [len * stride]: the sample being added is kept at the new
         stride too *)
      for i = 0 to (s.len / 2) - 1 do
        s.buf.(i) <- s.buf.(2 * i)
      done;
      s.len <- s.len / 2;
      s.stride <- 2 * s.stride
    end;
    s.buf.(s.len) <- v;
    s.len <- s.len + 1
  end;
  s.seen <- s.seen + 1

let count s = s.seen

(* Nearest-rank percentiles of the kept samples, [p] in (0, 1]. *)
let percentiles s ps =
  let a = Array.sub s.buf 0 s.len in
  Array.sort compare a;
  List.map
    (fun p ->
      if s.len = 0 then nan
      else
        let r = int_of_float (Float.ceil (p *. float_of_int s.len)) - 1 in
        float_of_int a.(max 0 (min (s.len - 1) r)))
    ps

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Heap accounting of a timed window: minor words allocated, and the
   collections the window triggered. *)
type gc_window = { words : float; minor_gcs : int; major_gcs : int }

let gc_open () =
  let st = Gc.quick_stat () in
  (st, Gc.minor_words ())

let gc_delta (st0, w0) =
  let w1 = Gc.minor_words () in
  let st1 = Gc.quick_stat () in
  { words = w1 -. w0;
    minor_gcs = st1.Gc.minor_collections - st0.Gc.minor_collections;
    major_gcs = st1.Gc.major_collections - st0.Gc.major_collections }

(* What an empty [gc_open]/[gc_close] bracket allocates by itself (the
   boxed first reading, the pair), subtracted from every window as in
   [bench/main.ml]'s [hot_measure]: an allocation-free loop reports 0. *)
let bracket_words = (gc_delta (gc_open ())).words

let gc_close g =
  let d = gc_delta g in
  { d with words = Float.max 0. (d.words -. bracket_words) }

(* Live heap bytes reachable from [x], in MB. *)
let state_mb x =
  float_of_int (Obj.reachable_words (Obj.repr x) * (Sys.word_size / 8))
  /. 1e6

(* [f] repeated at least [min_reps] times and until [min_s] seconds have
   been spent (at most 100 000 times); returns the wall time of each
   call, in seconds, and the last result. *)
let repeat ~min_reps ~min_s f =
  let t_all = now_ns () in
  let rec go k acc last =
    if k >= 100_000 || (k >= min_reps && seconds_since t_all >= min_s) then
      (acc, last)
    else begin
      let t0 = now_ns () in
      let r = f () in
      let dt = seconds_since t0 in
      go (k + 1) (dt :: acc) (Some r)
    end
  in
  go 0 [] None
