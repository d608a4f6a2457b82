(** Budgeted adaptive optimization: exact DPhyp, then IDP-k with
    shrinking k, then GOO.

    The graceful-degradation ladder the ROADMAP asks for.  Under a
    deterministic work budget (counted in considered pairs — see
    {!Counters}), the optimizer first attempts exact DPhyp; if the
    budget runs out it retries with {!Idp.solve} for each block size
    in the shrinking schedule [10; 7; 5; 3], each attempt on a fresh
    budget (smaller k = exponentially less work per round, so some
    rung fits unless the budget is tiny); if every DP rung is exhausted
    it falls back to unbudgeted {!Goo}, which always answers.  The outcome
    records which tier produced the plan and what every abandoned
    attempt cost, so clients and benchmarks can report degradation
    honestly.

    An exact rung that would run unpruned is never started when
    {!Dphyp.min_pairs} certifies it needs more pairs than its budget:
    it would certainly run out, so the ladder degrades at once and
    the plan, tier, counters and table size are those the full attempt
    would have produced.

    On dense graphs GOO runs first and its plan's cost bounds the
    exact rung, which prunes it; that rung is never skipped, and when
    it runs out of budget GOO's plan answers.

    Everything is deterministic: the same graph and budget always
    produce the same tier, the same counters and the same
    plan — no wall-clock measurements are involved. *)

type tier =
  | Exact  (** full DPhyp finished within budget *)
  | Partitioned
      (** the large-query tier ({!Partition.solve}): per-block exact
          DP + IDP stitch — entered first, instead of [Exact], for
          queries wider than {!Nodeset.Node_set.small_capacity}
          relations *)
  | Idp_k of int  (** IDP with this block size produced the plan *)
  | Greedy
      (** GOO's plan answered: every DP rung ran out of budget, or
          the GOO-bounded exact rung of a dense graph did *)
  | Conv
      (** never produced by {!solve}: the ladder no longer runs a
          subset-convolution tier.  Kept so existing matches on a
          tier (and its name, ["dpconv"]) stay valid. *)

val tier_name : tier -> string
(** ["exact"], ["partitioned"], ["idp-<k>"], ["greedy"], ["dpconv"] —
    used by the CLI and the benchmark JSON. *)

val ran_tier : Obs.Span.span -> string option
(** [Some (tier_name t)] when the span is the ["tier:<name>"] span of
    a rung {!solve} started — one the budget cut short included —
    and [None] for a skipped rung's span or any other span. *)

type attempt = {
  tier : tier;
  completed : bool;
      (** false when the budget ran out mid-attempt; true when the
          attempt ran to completion (with or without a plan) *)
  pairs : int;  (** pairs the attempt consumed before stopping *)
  skipped : (int * int) option;
      (** [Some (needs, budget)]: the rung was never started because
          {!Dphyp.min_pairs} certified it needs [needs] pairs, more
          than its [budget]; [completed] is then false and [pairs] 0 *)
}

type outcome = {
  plan : Plans.Plan.t option;
      (** [None] only if even GOO fails (disconnected graph whose
          cross-product fallback is disabled — not reachable through
          {!Optimizer.run} on connected inputs) *)
  tier : tier;  (** the tier that produced [plan] *)
  counters : Counters.t;
      (** counters of the winning attempt, under the request's budget:
          GOO runs unbudgeted, and its answer's counters are a copy
          of its counts made with [?budget] *)
  dp_entries : int;  (** DP table size of the winning attempt; 0 for
                         IDP/GOO tiers *)
  attempts : attempt list;
      (** every attempt, the winner last.  In execution order, except
          that GOO's run on a dense graph is listed once: before the
          exact rung it bounded when that rung completes, after it
          (as the winner) when its plan answers. *)
}

val solve :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  Hypergraph.Graph.t ->
  outcome
(** Run the ladder.  [?obs] records one ["tier:<name>"] span per
    attempted rung (with the pairs it consumed, and a ["raised"] tag
    when the budget cut it short), nesting the per-round IDP spans
    underneath.  Without [?budget] the exact tier always completes
    and the outcome equals plain DPhyp (tier {!Exact}).

    With [?budget], an exact rung that runs unpruned (any graph
    outside the dense band) is skipped when {!Dphyp.min_pairs}
    exceeds the budget.  The skip is recorded as an
    attempt with [skipped] set and 0 pairs, and as a ["tier:exact"]
    span with a ["skipped"] tag and a ["min_pairs"] attribute.  A
    bound-pruned rung may tick fewer pairs than the certificate
    counts, so it always runs.  Queries with more relations than
    {!Nodeset.Node_set.small_capacity} skip the exact rung and start
    at {!Partitioned} instead.  IDP rungs with [k >= n] are skipped.
    Never raises
    {!Counters.Budget_exhausted}.

    Graphs in the dense band (at most
    {!Nodeset.Node_set.small_capacity} relations, ≥ 40% of the
    complete graph's edges, {!Dpconv.simple_inner}) run {!Goo.solve}
    first, unbudgeted, on its own ["tier:greedy"] span, recorded as an
    attempt.  On that class GOO never takes its cross-product fallback
    on a connected graph, so DPhyp prices every merge of GOO's plan and
    [goo.cost × (1 + 1e-9)] is a valid [?bound] for the exact rung.
    The bound voids the min_pairs certificate, so the bounded rung
    always runs.  If it completes, its result stands — unchanged by
    the pruning, [None] on a disconnected graph; if it runs out of
    budget, GOO's plan answers (tier {!Greedy}, its one attempt listed
    after the exact rung's).  So in
    the band the ladder never costs more than GOO's plan. *)

val pp_attempts : Format.formatter -> attempt list -> unit
(** The ladder history on one line, in execution order:
    [exact(5001 pairs, budget ran out) -> greedy(286 pairs)], with a
    skipped rung as
    [exact(skipped: needs ≥ N pairs > budget B)]. *)

val exact_baseline :
  ?model:Costing.Cost_model.t ->
  Hypergraph.Graph.t ->
  (Plans.Plan.t, string) result
(** The exact DPhyp plan, the reference a fallback tier's plan is
    measured against, within a fixed cap of 1,000,000 pairs.
    [Error why] says why there is none: {!Dphyp.min_pairs} certifies
    the run needs more pairs than the cap (it is then never started),
    the run ran out of the cap, or the graph is disconnected. *)

val loss_report :
  ?model:Costing.Cost_model.t ->
  Hypergraph.Graph.t ->
  tier ->
  Plans.Plan.t ->
  (string, string) result option
(** What did graceful degradation cost?  [None] when [plan] came from
    the {!Exact} tier.  Otherwise [Ok] the aligned
    {!Plans.Plan_diff} of the tier's plan against {!exact_baseline},
    columns labeled with {!tier_name} / ["exact"], or [Error why]
    there is no baseline. *)
