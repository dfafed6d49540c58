(* Span recorder for the traced run.

   A span is a named wall-clock interval around one call into a layer's
   public API, with its parent span and the id of the operation it
   belongs to: each root span (a burst, or a scenario tick) starts a new
   operation. Records live in preallocated int columns, so
   recording allocates nothing; once the columns are full, later spans
   are only aggregated. Per-name counts, total time and self time (a
   span minus the time its child spans cover) are kept for every span,
   stored or not, from a fixed-depth stack of open spans. *)

let batch = 0
let steer = 1
let emc = 2
let walk = 3
let upcall = 4
let process_batch = 5
let process = 6
let revalidate = 7
let service_upcalls = 8
let tick = 9

let names =
  [| "bench.batch"; "pmd.shard_of"; "emc.lookup_batch"; "megaflow.walk_batch";
     "slowpath.upcall_batch"; "pmd.process_batch"; "pmd.process";
     "pmd.revalidate"; "pmd.service_upcalls"; "scenario.tick" |]

let max_depth = 8

type t = {
  cap : int;
  r_name : int array;
  r_start : int array;
  r_end : int array;
  r_parent : int array;
  r_op : int array;
  mutable n : int;
  mutable dropped : int;
  mutable roots : int;
  (* the open spans, innermost last *)
  o_name : int array;
  o_start : int array;
  o_child : int array;
  o_rec : int array;
  mutable depth : int;
  count : int array;
  total_ns : int array;
  self_ns : int array;
}

let create ?(capacity = 1 lsl 16) () =
  let col () = Array.make capacity 0 and per_name () = Array.make (Array.length names) 0 in
  { cap = capacity; r_name = col (); r_start = col (); r_end = col ();
    r_parent = col (); r_op = col (); n = 0; dropped = 0; roots = 0;
    o_name = Array.make max_depth 0; o_start = Array.make max_depth 0;
    o_child = Array.make max_depth 0; o_rec = Array.make max_depth 0;
    depth = 0; count = per_name (); total_ns = per_name ();
    self_ns = per_name () }

let enter t name =
  let d = t.depth in
  if d = max_depth then invalid_arg "Spans.enter: too deep";
  t.o_name.(d) <- name;
  t.o_child.(d) <- 0;
  if d = 0 then t.roots <- t.roots + 1;
  if t.n < t.cap then begin
    let i = t.n in
    t.n <- i + 1;
    t.r_name.(i) <- name;
    t.r_parent.(i) <- (if d = 0 then -1 else t.o_rec.(d - 1));
    t.r_op.(i) <- t.roots - 1;
    t.o_rec.(d) <- i
  end
  else begin
    t.dropped <- t.dropped + 1;
    t.o_rec.(d) <- -1
  end;
  t.depth <- d + 1;
  (* read last, so the bookkeeping above is outside the span *)
  t.o_start.(d) <- Meter.now_ns ()

let leave t =
  let stop = Meter.now_ns () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- d;
  let dur = stop - t.o_start.(d) in
  let name = t.o_name.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + dur;
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.o_child.(d);
  if d > 0 then t.o_child.(d - 1) <- t.o_child.(d - 1) + dur;
  let i = t.o_rec.(d) in
  if i >= 0 then begin
    t.r_start.(i) <- t.o_start.(d);
    t.r_end.(i) <- stop
  end

let count t name = t.count.(name)
let total_ns t name = t.total_ns.(name)
let self_ns t name = t.self_ns.(name)
let stored t = t.n
let dropped t = t.dropped

(* One JSON object per stored span; times are ns since the first span. *)
let write_jsonl t path =
  let origin = if t.n = 0 then 0 else t.r_start.(0) in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\
           \"parent\":%d,\"batch\":%d}\n"
          i names.(t.r_name.(i)) (t.r_start.(i) - origin)
          (t.r_end.(i) - origin) t.r_parent.(i) t.r_op.(i)
      done)
