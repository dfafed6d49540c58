(** Lowering validated [.pis] scenarios onto {!Pi_sim.Scenario} and
    reporting the results.

    Each [run] block becomes one [Scenario.run] invocation: [pmd] runs
    keep [params.backend = None] (the historical sharded scenario, bit
    for bit), [cacheless] runs select
    {!Pi_mitigation.Cacheless.dataplane}, and the mitigation knobs
    ([mask_limit]/[coarsen]/[emc off]/[upcall_queue]) map onto
    {!Pi_ovs.Datapath.config} exactly as the [ovsdos attack] flags do.

    The JSON rendering is byte-stable for a given scenario and engine
    version — fixed key order, [%.9g] floats, non-finite values as
    [null] (the {!Pi_telemetry.Export} conventions) — so example
    outputs can be golden-tested. *)

type check_result = {
  check : Validate.check;
  actual : float;
  ok : bool;
}

type run_result = {
  rr_name : string;
  rr_backend : Ast.backend;
  rr_report : Pi_sim.Scenario.report;
  rr_checks : check_result list;
}

type outcome = {
  oc_scenario : string;
  oc_seed : int64;
  oc_duration : float;
  oc_runs : run_result list;
}

val params_of_run : Validate.t -> Validate.run_cfg -> Pi_sim.Scenario.params
(** The exact parameters a run lowers to — exposed so tests can assert
    that interpreting a [.pis] file and calling [Scenario.run] directly
    agree sample for sample. *)

val metric_value : Validate.metric -> Pi_sim.Scenario.report -> float

val run : Validate.t -> outcome
(** Runs every [run] block in source order and evaluates its
    assertions. *)

val passed : outcome -> bool
(** Every assertion of every run held. *)

val run_passed : run_result -> bool

val json : outcome -> string
(** The stable JSON report (ends with a newline). *)

val pp_text : Format.formatter -> outcome -> unit
(** Human-readable summary, one block per run. *)
