type item =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Hist of Histogram.t

type t = { tbl : (string, item) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let wrong_type name what =
  invalid_arg
    (Printf.sprintf "Metrics.%s: %S is registered as a different type" what
       name)

let kind = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

(* A reader names a count its owner stores: two readers under one name
   would be two views of possibly different counts. *)
let register t name item =
  match Hashtbl.find_opt t.tbl name with
  | None -> Hashtbl.add t.tbl name item
  | Some old when kind old = kind item ->
    invalid_arg (Printf.sprintf "Metrics.%s: duplicate %S" (kind item) name)
  | Some _ -> wrong_type name (kind item)

let counter t name read = register t name (Counter read)
let gauge t name read = register t name (Gauge read)

let histogram ?lo ?growth ?n_buckets t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) -> h
  | Some _ -> wrong_type name "histogram"
  | None ->
    let h = Histogram.create ?lo ?growth ?n_buckets ~name () in
    Hashtbl.add t.tbl name (Hist h);
    h

let sorted_fold f t =
  Hashtbl.fold (fun name item acc -> f name item acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  sorted_fold
    (fun name item acc ->
      match item with Counter read -> (name, read ()) :: acc | _ -> acc)
    t

let gauges t =
  sorted_fold
    (fun name item acc ->
      match item with Gauge read -> (name, read ()) :: acc | _ -> acc)
    t

let histograms t =
  sorted_fold
    (fun name item acc -> match item with Hist h -> (name, h) :: acc | _ -> acc)
    t

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter read) -> Some (read ())
  | Some _ | None -> None

let find_gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge read) -> Some (read ())
  | Some _ | None -> None

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Hist h) -> Some h
  | Some _ | None -> None
