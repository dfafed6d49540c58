(* Streaming scrape: preregistered array-backed cells.

   v1 kept a reversed closure list and consed a [Timeseries] cell per
   source per tick; [register] rescanned the list for duplicates (O(n²)
   across a registration burst) and [tick] reversed the list every call.
   v2 stores one shared time column and one flat float column per
   source, grown geometrically — a tick is [n_sources] closure calls and
   array stores, no list traffic — with a hash index making [register]
   O(1). The [series]/[all] surface of v1 survives as a thin shim that
   materialises a [Timeseries] on demand. *)

type source = {
  s_name : string;
  s_sample : unit -> float;
  s_start : int;  (* tick index of this source's first sample *)
  mutable s_data : float array;
}

type t = {
  mutable srcs : source array;
  mutable n_srcs : int;
  index : (string, int) Hashtbl.t;
  mutable sorted : int array;  (* source indices in name order (JSONL) *)
  mutable times : float array;
  mutable len : int;  (* ticks recorded *)
  mutable log : Sample_log.t option;
  logbuf : Buffer.t;
}

let create () =
  { srcs = [||];
    n_srcs = 0;
    index = Hashtbl.create 16;
    sorted = [||];
    times = [||];
    len = 0;
    log = None;
    logbuf = Buffer.create 256 }

let grow a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let register t ~name fn =
  if Hashtbl.mem t.index name then
    invalid_arg (Printf.sprintf "Scrape.register: duplicate source %S" name);
  let s = { s_name = name; s_sample = fn; s_start = t.len; s_data = [||] } in
  if t.n_srcs = Array.length t.srcs then
    t.srcs <- grow t.srcs (max 8 (2 * t.n_srcs)) s;
  t.srcs.(t.n_srcs) <- s;
  Hashtbl.add t.index name t.n_srcs;
  t.n_srcs <- t.n_srcs + 1;
  let sorted = Array.init t.n_srcs (fun i -> i) in
  Array.sort
    (fun a b -> String.compare t.srcs.(a).s_name t.srcs.(b).s_name)
    sorted;
  t.sorted <- sorted

let attach_log t log = t.log <- Some log

let log_tick t ~now log =
  let b = t.logbuf in
  Buffer.clear b;
  Buffer.add_string b "{\"samples\":{";
  Array.iteri
    (fun k i ->
      let s = t.srcs.(i) in
      if k > 0 then Buffer.add_char b ',';
      Json.add_string b s.s_name;
      Buffer.add_char b ':';
      Json.add_float b s.s_data.(t.len - 1 - s.s_start))
    t.sorted;
  Buffer.add_string b "},\"t\":";
  Json.add_float b now;
  Buffer.add_char b '}';
  Sample_log.record log (Buffer.contents b)

let tick t ~now =
  if t.len > 0 && now < t.times.(t.len - 1) then
    invalid_arg "Scrape.tick: time must be non-decreasing";
  t.times <- grow t.times (t.len + 1) 0.;
  (* Registration order, so sources that read shared state see a
     consistent sweep ordering. *)
  for i = 0 to t.n_srcs - 1 do
    let s = t.srcs.(i) in
    let j = t.len - s.s_start in
    s.s_data <- grow s.s_data (j + 1) 0.;
    s.s_data.(j) <- s.s_sample ()
  done;
  t.times.(t.len) <- now;
  t.len <- t.len + 1;
  match t.log with Some log -> log_tick t ~now log | None -> ()

let n_sources t = t.n_srcs
let n_ticks t = t.len

let times t = Array.sub t.times 0 t.len

let samples t name =
  match Hashtbl.find_opt t.index name with
  | None -> None
  | Some i ->
    let s = t.srcs.(i) in
    Some (s.s_start, Array.sub s.s_data 0 (t.len - s.s_start))

(* --- v1 compatibility: materialise Timeseries on demand ----------- *)

let series_of t (s : source) =
  let ts = Timeseries.create ~name:s.s_name in
  for j = 0 to t.len - s.s_start - 1 do
    Timeseries.add ts ~time:t.times.(s.s_start + j) s.s_data.(j)
  done;
  ts

let series t name =
  match Hashtbl.find_opt t.index name with
  | None -> None
  | Some i -> Some (series_of t t.srcs.(i))

let all t = List.init t.n_srcs (fun i -> series_of t t.srcs.(i))
