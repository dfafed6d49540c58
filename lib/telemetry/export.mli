(** Snapshot export: machine-readable JSON and an
    [ovs-appctl dpctl/show]-style text dump.

    The JSON snapshot is {e stable}: object keys are sorted (the
    [timeseries] columns keep their given order), floats use a fixed
    format ([%.9g]; non-finite values become [null]), so two
    snapshots of identical telemetry are byte-identical and benchmark
    outputs ([BENCH_*.json]) diff cleanly across runs and PRs. *)

type timeseries = (string * (float * float) list) list
(** Named columns of [(time, value)] points, in the order they are
    written; {!Pi_sim.Scenario.timeseries} builds them from a run's
    per-tick samples. *)

val json_snapshot :
  ?timeseries:timeseries -> ?tracer:Tracer.t ->
  ?extra:(string * string) list -> Metrics.t -> string
(** One JSON object (newline-terminated) with sections [counters],
    [gauges], [histograms] (summaries: count/mean/min/max/p50/p99), and
    — when given — [timeseries] (each column as [[time, value]] pairs,
    in column order) and [trace] (ring statistics; [by_kind] tallies
    the retained events, [by_kind_total] the cumulative counts that
    survive wrap-around). Each [(name, json)] pair in [extra] is
    appended as a trailing top-level section: [json] must already be
    valid JSON (e.g. {!Pi_ovs.Provenance.summary_json}) and is emitted
    verbatim. *)

val timeseries_jsonl : timeseries -> string
(** One [{"samples":{name:value,...},"t":time}] line per point, names
    sorted, floats as in {!json_snapshot}. The columns must share their
    times: line [i] holds every column's [i]th value and the first
    column's [i]th time. *)

val write_json_file :
  ?timeseries:timeseries -> ?tracer:Tracer.t ->
  ?extra:(string * string) list -> path:string -> Metrics.t -> unit

val pp_text : ?tracer:Tracer.t -> Format.formatter -> Metrics.t -> unit
(** dpctl-flavoured human dump: [lookups: hit:… missed:…], the mask
    line ([current:] is the live [n_masks] gauge when the producer
    maintains one, [created-total:] the cumulative [mask_created]
    counter), then every counter, gauge, histogram summary and trace
    tally (cumulative, with retained counts in parentheses). *)

val text_report : ?tracer:Tracer.t -> Metrics.t -> string
