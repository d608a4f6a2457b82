(** EXPLAIN ANALYZE: per-operator runtime statistics and Q-error.

    Optimize a query, execute the chosen plan on a calibrated random
    instance through the single-pass stats collector
    ({!Executor.Exec.eval_stats}), and join every operator's estimated
    cardinality ({!Plans.Plan.estimates}) against its measured row
    count.  The report carries the per-operator est/actual/Q-error/
    time table behind [joinopt analyze], aggregate Q-error figures,
    and the measured plan-quality delta against the exact (DPhyp)
    plan.  With [?obs] the phases land in the caller's span
    collector, next to the optimizer's own spans. *)

type op_row = {
  depth : int;  (** nesting depth in the plan tree, root = 0 *)
  label : string;  (** operator symbol, or ["scan <name>"] *)
  tables : Nodeset.Node_set.t;  (** relations covered by the subtree *)
  est_card : float;  (** optimizer-estimated output cardinality *)
  actual_rows : int;  (** measured output rows (single execution) *)
  q_error : float option;
      (** [max(est/actual, actual/est)]; [None] when the operator
          produced no rows (NULL-safe, {!Costing.Cardinality.q_error}) *)
  wall_ms : float;  (** inclusive wall clock, children included *)
  pred_evals : int;  (** predicate evaluations at this operator *)
  invocations : int;  (** > 1 only under dependent joins *)
  is_join : bool;  (** false for scans *)
}

type report = {
  optimized : Pipeline.result;
      (** the pipeline run behind the report: the plan over the
          calibrated graph, its operator tree, counters, tier, ladder
          attempts and DP-table occupancy *)
  source : string;
      (** plan provenance ({!Core.Optimizer.plan_source}): the
          algorithm, or the adaptive tier that answered *)
  rows : op_row list;  (** preorder: parents before children *)
  result_rows : int;
  mismatch : string option;
      (** [None] when the plan's result bag equals the initial tree's;
          otherwise the {!Executor.Bag.diff_summary} account *)
  max_q : float option;  (** worst join Q-error *)
  median_q : float option;  (** median join Q-error *)
  est_cout : float;  (** sum of estimated join cardinalities *)
  measured_cout : float;  (** sum of measured join output rows *)
  original_cout : float;  (** measured C_out of the initial tree *)
  exact_cout : float option;
      (** measured C_out of the exact (DPhyp) plan; equals
          [measured_cout] when the plan already came from an exact
          algorithm/tier, and [None] when
          {!Core.Adaptive.exact_baseline} has no plan *)
  quality_delta : float option;  (** [measured_cout / exact_cout] *)
  exec_ms : float;  (** wall clock of executing the chosen plan *)
}

val analyze_tree :
  ?obs:Obs.Span.ctx ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?conservative:bool ->
  ?rows:int ->
  ?domain:int ->
  ?seed:int ->
  ?sample:int ->
  Relalg.Optree.t ->
  (report, string) result
(** Derive the hypergraph through {!Pipeline.derive} (under
    {!Pipeline.Tes_conservative} when [conservative], else
    {!Pipeline.Tes_literal}), build a deterministic random instance
    ([rows] per table, default 8; values in [0, domain), default 4;
    generator [seed], default 42), calibrate the catalog on it
    ({!Executor.Estimate.calibrate} with the same [seed], so the whole
    report is reproducible), optimize the calibrated graph with [algo]
    through {!Pipeline.optimize_graph}, execute, and measure.  [?obs]
    additionally records
    [calibrate], [execute], [verify] and (for heuristic plans)
    [exact-reference] spans on top of the optimizer's own. *)

val analyze_sql :
  ?obs:Obs.Span.ctx ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?conservative:bool ->
  ?rows:int ->
  ?domain:int ->
  ?seed:int ->
  ?sample:int ->
  string ->
  (report, string) result
(** Parse + bind (under a [parse] span) + {!analyze_tree}. *)

type execution = {
  optimized : Pipeline.result;  (** as in {!report} *)
  tuples : Executor.Env.t list;  (** the plan's result, in output order *)
  mismatch : string option;  (** as in {!report} *)
}

val execute_sql :
  algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  conservative:bool ->
  rows:int ->
  seed:int ->
  string ->
  (execution, string) result
(** The front half of {!analyze_sql}, for callers that want the
    result tuples and the verdict, not the report: the same parse,
    derivation, instance (values in [0, 4)), calibration, enumeration,
    execution and verification, without spans, the per-operator rows
    and the exact reference.  With the same [algo], [conservative],
    [rows] and [seed] its plan is {!analyze_sql}'s. *)

val pp : ?stable:bool -> Format.formatter -> report -> unit
(** The EXPLAIN ANALYZE table: one row per operator (indented by plan
    depth) with estimated rows, actual rows, Q-error, inclusive
    milliseconds and predicate evaluations, followed by the Q-error
    aggregates, top offenders, the C_out comparison (estimated,
    measured, original order, exact plan) and the verification
    verdict.  [~stable:true] replaces wall-clock columns with ["-"]
    so output is byte-deterministic (golden tests). *)

val to_json : ?query:string -> report -> string
(** The [obs_analyze/v1] document: schema header, plan provenance,
    one object per operator ([op], [depth], [tables], [est_card],
    [actual_rows], [q_error] (nullable), [ms], [pred_evals],
    [invocations]), a [summary] block (join count, max/median
    Q-error, estimated/measured/original/exact C_out, quality delta,
    result rows, execution ms) and the verification flag. *)
