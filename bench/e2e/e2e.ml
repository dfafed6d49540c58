(* bench/e2e — the repository's end-to-end benchmark.

     dune exec bench/e2e/e2e.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace [0|1]] [--quick] [--compare FILE]
       [--examples DIR]

   Runs the four workloads of README.md (all of them unless --workload
   names one), prints every metric by name and unit, checks every output,
   and writes BENCH_e2e.json (plus BENCH_e2e_trace_<workload>.jsonl
   under --trace). The last line of standard output is one JSON object:
   correct / attempted / failed and the end-to-end metrics, or with
   --trace the per-layer ones. The exit status is 1 when any check
   failed. *)

type better = Lower | Higher

type kind =
  | End_to_end of better * float  (* may worsen by this share of the baseline *)
  | Per_layer
  | Extra  (* printed and saved, not part of the result line *)

(* Keep the End_to_end and Per_layer rows in step with BENCHMARK.json. *)
let catalog =
  [ ("setup_s", "s", End_to_end (Lower, 0.25));
    ("pkts_per_s", "1/s", End_to_end (Higher, 0.25));
    ("op_us_p50", "us", End_to_end (Lower, 0.25));
    ("op_us_p99", "us", End_to_end (Lower, 0.25));
    ("state_mb", "MB", End_to_end (Lower, 0.02));
    ("datapath.ns_per_pkt", "ns", Per_layer);
    ("pmd.steer_ns_per_pkt", "ns", Per_layer);
    ("emc.probe_ns_per_pkt", "ns", Per_layer);
    ("emc.hit_ratio", "ratio", Per_layer);
    ("megaflow.walk_ns_per_pkt", "ns", Per_layer);
    ("megaflow.probes_per_walk", "count", Per_layer);
    ("megaflow.masks", "count", Per_layer);
    ("megaflow.entries", "count", Per_layer);
    ("megaflow.revalidate_us", "us", Per_layer);
    ("megaflow.evicted_per_sweep", "count", Per_layer);
    ("slowpath.upcall_ns_per_pkt", "ns", Per_layer);
    ("slowpath.upcalls_per_pkt", "ratio", Per_layer);
    ("datapath.residual_ns_per_pkt", "ns", Per_layer);
    ("cost_model.cycles_per_pkt", "cycles", Per_layer);
    ("cost_model.measured_over_modelled", "ratio", Per_layer);
    ("gc.minor_words_per_pkt", "words", Per_layer);
    ("gc.minor_per_mpkt", "count", Per_layer);
    ("gc.major_collections", "count", Per_layer);
    ("cms.compile_ms", "ms", Per_layer);
    ("trace.overhead", "ratio", Per_layer);
    ("segments", "count", Extra);
    ("op_samples", "count", Extra);
    ("alloc_words_per_pkt", "words", Extra);
    ("fail_frac", "ratio", Extra);
    ("datapath.warmup_s", "s", Extra);
    ("run_s", "s", Extra);
    ("dsl.parse_ms", "ms", Extra);
    ("dsl.validate_ms", "ms", Extra);
    ("dsl.lower_ms", "ms", Extra);
    ("scenario.first_attack_tick_ms", "ms", Extra);
    ("scenario.self_ms_per_tick", "ms", Extra);
    ("scenario.dataplane_share", "ratio", Extra);
    ("megaflow.ns_per_probe", "ns", Extra);
    ("slowpath.upcall_ns", "ns", Extra);
    ("trace.spans_stored", "count", Extra);
    ("trace.spans_dropped", "count", Extra) ]

let lookup name =
  match List.find_opt (fun (n, _, _) -> n = name) catalog with
  | Some (_, unit, kind) -> (unit, kind)
  | None -> invalid_arg ("metric missing from the catalog: " ^ name)

let in_result_line ~trace kind =
  match kind with
  | End_to_end _ -> not trace
  | Per_layer -> trace
  | Extra -> false

let usage =
  "usage: e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
  \                [--quick] [--compare FILE] [--examples DIR]\n\
   workloads: " ^ String.concat ", " Workload.names

type args = {
  workloads : string list;
  cfg : Workload.config;
  compare : string option;
}

let parse_args argv =
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> bad ("not an integer: " ^ s) in
  let rec go a quick = function
    | [] -> (a, quick)
    | "--workload" :: w :: rest ->
      if not (List.mem w Workload.names) then bad ("unknown workload: " ^ w);
      go { a with workloads = [ w ] } quick rest
    | "--seed" :: n :: rest -> go { a with cfg = { a.cfg with seed = int_of n } } quick rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some f when f > 0. -> go { a with cfg = { a.cfg with seconds = f } } quick rest
       | _ -> bad ("not a positive number of seconds: " ^ s))
    | "--trace" :: ("0" | "1" as v) :: rest ->
      go { a with cfg = { a.cfg with trace = v = "1" } } quick rest
    | "--trace" :: rest -> go { a with cfg = { a.cfg with trace = true } } quick rest
    | "--quick" :: rest -> go a true rest
    | "--compare" :: f :: rest -> go { a with compare = Some f } quick rest
    | "--examples" :: d :: rest -> go { a with cfg = { a.cfg with examples = d } } quick rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | x :: _ -> bad ("bad argument: " ^ x)
  in
  let a, quick =
    go
      { workloads = Workload.names;
        cfg =
          { Workload.seed = 1; seconds = 10.; trace = false; quick = false;
            examples = "examples" };
        compare = None }
      false (List.tl (Array.to_list argv))
  in
  (* --quick: tiny inputs and windows, both passes, nothing written *)
  if quick then
    { a with cfg = { a.cfg with Workload.quick = true; trace = true; seconds = 0.1 } }
  else a

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_report name (cfg : Workload.config) (r : Workload.result) =
  Printf.printf "\n== %s (seed %d, %g s, %s) ==\n" name cfg.Workload.seed
    cfg.Workload.seconds
    (if cfg.Workload.trace then "untraced + traced halves" else "untraced");
  let section title keep =
    let rows = List.filter (fun (n, _) -> keep (snd (lookup n))) r.Workload.metrics in
    if rows <> [] then begin
      Printf.printf "  %s\n" title;
      List.iter
        (fun (n, v) ->
          let unit, kind = lookup n in
          let bound =
            match kind with
            | End_to_end (b, x) ->
              Printf.sprintf "  (%s is better; bound %.0f%%)"
                (match b with Lower -> "lower" | Higher -> "higher") (x *. 100.)
            | Per_layer | Extra -> ""
          in
          Printf.printf "    %-36s %14s %-6s%s\n" n (fmt_value v) unit bound)
        rows
    end
  in
  section "end to end" (function End_to_end _ -> true | _ -> false);
  if cfg.Workload.trace then section "per layer" (function Per_layer -> true | _ -> false);
  section "other" (function Extra -> true | _ -> false);
  Printf.printf "  checks: %d attempted, %d failed\n" r.Workload.attempted r.Workload.failed;
  Option.iter
    (fun sp ->
      Printf.printf "  spans (traced half): %-26s %9s %11s %11s %10s\n" "" "count"
        "total ms" "self ms" "ns/call";
      Array.iteri
        (fun i n ->
          let c = Spans.count sp i in
          if c > 0 then
            Printf.printf "    %-46s %9d %11.1f %11.1f %10.0f\n" n c
              (float_of_int (Spans.total_ns sp i) /. 1e6)
              (float_of_int (Spans.self_ns sp i) /. 1e6)
              (float_of_int (Spans.total_ns sp i) /. float_of_int c))
        Spans.names;
      match List.assoc_opt "trace.overhead" r.Workload.metrics with
      | Some o ->
        Printf.printf "  tracing overhead: %.2fx wall time per packet (traced / untraced)\n" o
      | None -> ())
    r.Workload.spans

let json_metrics ?(prefix = "") buf ~keep metrics =
  let first = ref true in
  List.iter
    (fun (n, v) ->
      let unit, kind = lookup n in
      if keep kind then begin
        if not !first then Buffer.add_string buf ", ";
        first := false;
        Printf.bprintf buf "\"%s%s\": {\"value\": %s, \"unit\": \"%s\"}" prefix n
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          unit
      end)
    metrics

let result_line ~correct ~attempted ~failed fill =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  fill buf;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let write_bench_json (cfg : Workload.config) results =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"seed\": %d, \"seconds\": %g, \"trace\": %b, \"workloads\": {"
    cfg.Workload.seed cfg.Workload.seconds cfg.Workload.trace;
  List.iteri
    (fun i (name, (r : Workload.result)) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "\"%s\": %s" name
        (result_line ~correct:(r.Workload.failed = 0) ~attempted:r.Workload.attempted
           ~failed:r.Workload.failed (fun b ->
             json_metrics b ~keep:(fun _ -> true) r.Workload.metrics)))
    results;
  Buffer.add_string buf "}}\n";
  Out_channel.with_open_text "BENCH_e2e.json" (fun oc -> Buffer.output_buffer oc buf)

(* Each end-to-end metric against the baseline's median for the same
   workload: the change, and whether it is worse than the bound. *)
let compare_baseline file results =
  let base =
    try Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Json.Error e | Sys_error e ->
      Printf.eprintf "--compare %s: %s\n" file e;
      exit 2
  in
  Printf.printf "\n== compared with %s (median of its runs) ==\n" file;
  Printf.printf "  %-14s %-12s %14s %14s %8s %7s\n" "workload" "metric" "now" "baseline"
    "change" "bound";
  let regressions = ref 0 in
  List.iter
    (fun (w, (r : Workload.result)) ->
      List.iter
        (fun (n, v) ->
          match snd (lookup n) with
          | End_to_end (better, bound) -> (
            let median =
              Option.bind (Json.member "workloads" base) (fun ws ->
                  Option.bind (Json.member w ws) (fun m ->
                      Option.bind (Json.member n m) (fun x ->
                          Option.bind (Json.member "median" x) Json.to_float)))
            in
            match median with
            | None -> Printf.printf "  %-14s %-12s %14s   (no baseline)\n" w n (fmt_value v)
            | Some b ->
              let change = (v -. b) /. b in
              let worse = match better with Lower -> change | Higher -> -.change in
              let bad = worse > bound in
              if bad then incr regressions;
              Printf.printf "  %-14s %-12s %14s %14s %+7.1f%% %6.0f%% %s\n" w n
                (fmt_value v) (fmt_value b) (change *. 100.) (bound *. 100.)
                (if bad then "WORSE" else "ok"))
          | Per_layer | Extra -> ())
        r.Workload.metrics)
    results;
  Printf.printf "  %d metric(s) worse than their bound\n" !regressions

let () =
  let a = parse_args Sys.argv in
  let cfg = a.cfg in
  let results = List.map (fun w -> (w, Workload.run cfg w)) a.workloads in
  List.iter (fun (w, r) -> print_report w cfg r) results;
  if not cfg.Workload.quick then begin
    write_bench_json cfg results;
    List.iter
      (fun (w, (r : Workload.result)) ->
        Option.iter
          (fun sp -> Spans.write_jsonl sp (Printf.sprintf "BENCH_e2e_trace_%s.jsonl" w))
          r.Workload.spans)
      results
  end;
  Option.iter (fun f -> compare_baseline f results) a.compare;
  let keep = in_result_line ~trace:cfg.Workload.trace in
  let finite (_, (r : Workload.result)) =
    List.for_all
      (fun (n, v) -> Float.is_finite v || not (keep (snd (lookup n))))
      r.Workload.metrics
  in
  let attempted = List.fold_left (fun s (_, r) -> s + r.Workload.attempted) 0 results in
  let failed = List.fold_left (fun s (_, r) -> s + r.Workload.failed) 0 results in
  let correct = failed = 0 && List.for_all finite results in
  let line =
    result_line ~correct ~attempted ~failed (fun buf ->
        match results with
        | [ (_, r) ] -> json_metrics buf ~keep r.Workload.metrics
        | _ ->
          List.iteri
            (fun i (w, (r : Workload.result)) ->
              if i > 0 then Buffer.add_string buf ", ";
              json_metrics buf ~prefix:(w ^ "/") ~keep r.Workload.metrics)
            results)
  in
  print_newline ();
  print_endline line;
  if not correct then exit 1
