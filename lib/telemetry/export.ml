(* Hand-rolled JSON emission: the toolchain has no JSON dependency and
   the snapshot must be byte-stable (sorted keys, fixed float format)
   so successive runs diff cleanly. *)

let add_fields b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, add_v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.add_string b k;
      Buffer.add_char b ':';
      add_v b)
    fields;
  Buffer.add_char b '}'

let add_summary b (s : Histogram.summary) =
  add_fields b
    [ ("count", fun b -> Buffer.add_string b (string_of_int s.Histogram.s_count));
      ("mean", fun b -> Json.add_float b s.Histogram.s_mean);
      ("min", fun b -> Json.add_float b s.Histogram.s_min);
      ("max", fun b -> Json.add_float b s.Histogram.s_max);
      ("p50", fun b -> Json.add_float b s.Histogram.s_p50);
      ("p99", fun b -> Json.add_float b s.Histogram.s_p99) ]

type timeseries = (string * (float * float) list) list

let add_points b points =
  Buffer.add_char b '[';
  List.iteri
    (fun i (time, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Json.add_float b time;
      Buffer.add_char b ',';
      Json.add_float b v;
      Buffer.add_char b ']')
    points;
  Buffer.add_char b ']'

let add_tracer b tr =
  let kind_counts counts b =
    add_fields b
      (List.map
         (fun (k, n) -> (k, fun b -> Buffer.add_string b (string_of_int n)))
         counts)
  in
  add_fields b
    [ ("capacity", fun b -> Buffer.add_string b (string_of_int (Tracer.capacity tr)));
      ("recorded", fun b -> Buffer.add_string b (string_of_int (Tracer.total tr)));
      ("dropped", fun b -> Buffer.add_string b (string_of_int (Tracer.dropped tr)));
      (* [by_kind] counts only what the ring retains; [by_kind_total]
         is cumulative and survives wrap-around. *)
      ("by_kind", kind_counts (Tracer.counts_by_kind tr));
      ("by_kind_total", kind_counts (Tracer.total_by_kind tr)) ]

let json_snapshot ?timeseries ?tracer ?(extra = []) metrics =
  let b = Buffer.create 4096 in
  let sections =
    [ ( "counters",
        fun b ->
          add_fields b
            (List.map
               (fun (name, v) ->
                 (name, fun b -> Buffer.add_string b (string_of_int v)))
               (Metrics.counters metrics)) );
      ( "gauges",
        fun b ->
          add_fields b
            (List.map
               (fun (name, v) -> (name, fun b -> Json.add_float b v))
               (Metrics.gauges metrics)) );
      ( "histograms",
        fun b ->
          add_fields b
            (List.map
               (fun (name, h) ->
                 (name, fun b -> add_summary b (Histogram.summary h)))
               (Metrics.histograms metrics)) ) ]
  in
  let sections =
    sections
    @ (match timeseries with
       | None -> []
       | Some columns ->
         [ ( "timeseries",
             fun b ->
               add_fields b
                 (List.map
                    (fun (name, points) -> (name, fun b -> add_points b points))
                    columns) ) ])
    @ (match tracer with
       | None -> []
       | Some tr -> [ ("trace", fun b -> add_tracer b tr) ])
    @ List.map
        (fun (name, raw) ->
          (name, fun b -> Buffer.add_string b (raw : string)))
        extra
  in
  add_fields b sections;
  Buffer.add_char b '\n';
  Buffer.contents b

(* One line per tick: the columns share their times, so line [i] holds
   every column's [i]th value under its name, in name order. *)
let timeseries_jsonl columns =
  let b = Buffer.create 4096 in
  let columns =
    List.map
      (fun (name, points) -> (name, Array.of_list points))
      (List.sort (fun (a, _) (c, _) -> String.compare a c) columns)
  in
  let n = match columns with [] -> 0 | (_, p) :: _ -> Array.length p in
  for i = 0 to n - 1 do
    add_fields b
      [ ( "samples",
          fun b ->
            add_fields b
              (List.map
                 (fun (name, p) -> (name, fun b -> Json.add_float b (snd p.(i))))
                 columns) );
        ("t", fun b -> Json.add_float b (fst (snd (List.hd columns)).(i))) ];
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let write_json_file ?timeseries ?tracer ?extra ~path metrics =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (json_snapshot ?timeseries ?tracer ?extra metrics))

(* ovs-appctl dpctl/show-style text dump. *)
let pp_text ?tracer ppf metrics =
  let counters = Metrics.counters metrics in
  let c name = Option.value ~default:0 (Metrics.find_counter metrics name) in
  let packets = c "packets" in
  let hit = c "emc_hit" + c "mf_hit" in
  let missed = c "upcall" in
  Format.fprintf ppf "@[<v>lookups: hit:%d missed:%d lost:%d@," hit missed
    (c "upcall_drops");
  (* [mask_created] is cumulative (evictions never decrease it); the
     current subtable count is the live [n_masks] gauge, when the
     producer maintains one. *)
  (match Metrics.find_gauge metrics "n_masks" with
   | Some v -> Format.fprintf ppf "masks: current:%.0f" v
   | None -> Format.fprintf ppf "masks: current:?");
  Format.fprintf ppf " created-total:%d hit/pkt:%.2f@,"
    (c "mask_created")
    (if packets = 0 then 0.
     else float_of_int (c "mf_probes") /. float_of_int packets);
  Format.fprintf ppf "counters:@,";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %s: %d@," name v)
    counters;
  (match Metrics.gauges metrics with
   | [] -> ()
   | gauges ->
     Format.fprintf ppf "gauges:@,";
     List.iter
       (fun (name, v) -> Format.fprintf ppf "  %s: %g@," name v)
       gauges);
  (match Metrics.histograms metrics with
   | [] -> ()
   | hists ->
     Format.fprintf ppf "histograms:@,";
     List.iter (fun (_, h) -> Format.fprintf ppf "  %a@," Histogram.pp h) hists);
  (match tracer with
   | None -> ()
   | Some tr ->
     Format.fprintf ppf "trace: %d recorded, %d retained, %d dropped@,"
       (Tracer.total tr) (Tracer.length tr) (Tracer.dropped tr);
     let retained = Tracer.counts_by_kind tr in
     List.iter
       (fun (k, total) ->
         let r =
           Option.value ~default:0 (List.assoc_opt k retained)
         in
         Format.fprintf ppf "  %s: %d (retained %d)@," k total r)
       (Tracer.total_by_kind tr));
  Format.fprintf ppf "@]"

let text_report ?tracer metrics =
  Format.asprintf "%a" (pp_text ?tracer) metrics
