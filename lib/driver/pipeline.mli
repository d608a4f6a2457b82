(** One-call driver for the whole optimization pipeline.

    The layered API (simplify → analyze → derive → enumerate) is what
    the examples teach; this module is the convenience wrapper a
    downstream user actually calls:

    {[
      match Driver.Pipeline.optimize_sql "SELECT * FROM a JOIN b ON a.k = b.k" with
      | Ok r -> Format.printf "%a@." Plans.Plan.pp r.plan
      | Error msg -> prerr_endline msg
    ]}

    A request is observed through two optional channels: [?obs]
    collects its span tree (render it with {!Obs.Metrics.pp_table}),
    [?tel] feeds always-on serving telemetry.  Search-space provenance
    is not a third channel: [Inspect.Provenance.with_recording] wraps
    any call of this module and records the DP tables it builds. *)

type conflict_mode =
  | Tes_literal  (** the paper's CalcTES with the literal path gate *)
  | Tes_conservative
      (** CalcTES with the widened gate (reproduces Figure 8a) *)
  | Cdc
      (** the SIGMOD 2013 rule-based successor: hyperedges plus a
          validity filter, which only DPhyp accepts *)
(** The Section 5.8 generate-and-test baseline (SES edges plus a TES
    validity filter) is not a mode: it costs the same as
    {!Tes_conservative} on every measured input, and Figure 8a calls
    [Conflicts.Derive.ses_graph] and {!Core.Optimizer.run} directly. *)

type result = {
  tree : Relalg.Optree.t;  (** after simplification *)
  graph : Hypergraph.Graph.t;
  plan : Plans.Plan.t;
  counters : Core.Counters.t;
  tier : Core.Adaptive.tier option;
      (** which adaptive rung produced the plan; [None] unless
          [algo = Adaptive] *)
  attempts : Core.Adaptive.attempt list;
      (** the adaptive ladder's history ({!Core.Adaptive.pp_attempts});
          [[]] unless [algo = Adaptive] *)
  dp_entries : int;  (** DP/memo table occupancy of the winning run *)
}

val budget_error : string
(** The message every entry point returns when a non-adaptive
    algorithm exhausts its work budget. *)

type plan_cache = Core.Optimizer.result Cache.Plan_cache.t
(** A concurrent memoized plan cache for repeated optimizer traffic.
    One cache may serve every entry point of this module from any
    number of domains at once (it is the {!run_batch} companion for
    replayed workloads).  Keys are exact — canonical fingerprint for
    sharding plus the verbatim serialized graph and optimizer
    parameters — so a hit returns a result byte-identical (plan tree,
    cost, counters, tier) to what a fresh enumeration would produce.
    {!Cdc} requests bypass the cache: their
    validity filter is a closure the key cannot capture. *)

val make_cache : capacity:int -> unit -> plan_cache
(** [Cache.Plan_cache.create] at the pipeline's value type. *)

val export_cache_stats : Obs.Export.t -> plan_cache -> unit
(** Publish the cache's counters and occupancy into the telemetry
    registry: [joinopt_plan_cache_requests_total{outcome=...}],
    [joinopt_plan_cache_evictions_total], per-shard
    [joinopt_plan_cache_entries{shard=...}] gauges and the capacity
    gauge.  Call before rendering an export — the values are absolute
    snapshots, safe to re-publish at any time. *)

type derived = {
  tree : Relalg.Optree.t;  (** after simplification *)
  graph : Hypergraph.Graph.t;
  filter : Core.Emit.filter option;  (** [Some] under {!Cdc} only *)
}

val derive :
  ?obs:Obs.Span.ctx ->
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  mode:conflict_mode ->
  Relalg.Optree.t ->
  (derived, string) Result.t
(** The front end every tree request runs: validate, simplify, run
    conflict analysis under [mode] and derive the hypergraph, with
    [simplify], [conflict-analysis] and [hypergraph-derive] spans.
    [?cards] and [?sels] override the derived catalog.  An invalid
    tree is [Error]. *)

val optimize_tree :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?mode:conflict_mode ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  Relalg.Optree.t ->
  (result, string) Result.t
(** Simplify, run conflict analysis under [mode] (default
    {!Tes_literal}), derive the hypergraph, optimize with [algo]
    (default DPhyp).  [?obs] records one span per pipeline phase
    ([simplify], [conflict-analysis], [hypergraph-derive],
    [enumerate:<algo>] plus the per-tier / per-round spans inside it)
    into the caller's collector; omitting it runs the completely
    un-instrumented path.  The result's counters, tier, attempts and
    table occupancy are filled either way.  The enumeration is
    {!Core.Optimizer.run} under [?model] and [?budget], with its
    exceptions as values: an exhausted budget is [Error budget_error],
    a refused input ([Dpccp] on a hypergraph, {!Cdc} under any
    algorithm but DPhyp) is [Error] with its reason.  The algorithm
    value carries its own parameters (IDP's and the partitioned
    tier's block sizes), and the plan-cache key includes them.
    [Error] also reports an invalid tree, and a run that finds no plan
    as ["no valid plan found"].

    [?cache] memoizes the enumeration step: the lookup (and, on a
    miss, the nested enumeration) runs under a [cache] span whose
    [cache] attribute records [hit] / [miss] / [coalesced]; a hit
    returns the cached run's counters, tier, attempts and table
    occupancy, identical to a fresh run's.  Parse,
    simplification, conflict analysis and graph derivation always run
    — they produce the key — so a hit costs one serialization and one
    lookup instead of an enumeration.  The key's graph fingerprint
    (the recorder's label under [?tel]) is computed on a miss and
    stored with the entry, so a hit or coalesced wait reads it back
    rather than fingerprinting its graph.

    To record search-space provenance, wrap the call in
    [Inspect.Provenance.with_recording]: every DP table the
    enumeration builds on the calling domain records into the
    recorder.  A plan-cache hit builds no table and records nothing.

    [?tel] is always-on serving telemetry, independent of [?obs]:
    every request records into the
    [joinopt_optimize_latency_seconds{algo,cache,result}] histogram
    and a flat flight-recorder entry — fingerprint, relations, tier,
    cache outcome, pairs, wall clock, allocation — which keeps the
    full span tree for requests over the slow threshold.  The other
    series are read from the request's own span tree (a request with
    [?tel] but no [?obs] gets a private collector): depth-0 phases
    into [joinopt_phase_latency_seconds{phase}] and every adaptive
    rung that ran (budget-exhausted ones included, certificate-skipped
    ones not) into [joinopt_tier_latency_seconds{tier}].  Only the
    spans of this request are read, so one collector may serve many
    requests.
    [?tel] exists only at this layer; the optimizer below it is
    observed through [?obs] alone.  Requests that fail before a
    hypergraph exists (invalid tree, unparseable SQL) record
    nothing. *)

val optimize_sql :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?mode:conflict_mode ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  string ->
  (result, string) Result.t
(** Parse + bind (under a [parse] span) + {!optimize_tree}.  The
    request's clock and collector start before parsing, so [?tel]
    latency and phases include parse and bind. *)

val optimize_graph :
  ?obs:Obs.Span.ctx ->
  ?tel:Obs.Export.t ->
  ?cache:plan_cache ->
  ?algo:Core.Optimizer.algorithm ->
  ?model:Costing.Cost_model.t ->
  ?budget:int ->
  Hypergraph.Graph.t ->
  (result, string) Result.t
(** Plain-hypergraph entry point (inner joins / pre-built edges); the
    [tree] field of the result is the optimized plan re-materialized
    as an operator tree (under a [plan-emit] span when observed).  A
    graph without a plan, such as a disconnected one, is
    [Error "no valid plan found"]. *)

val run_batch : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Inter-query parallelism: [run_batch ~jobs f xs] applies [f] to
    every query and returns the results in input order.  The caller
    and [min jobs (List.length xs) - 1] domains spawned for this call
    take the queries from one shared counter, and every domain is
    joined before it returns; [jobs = 1] spawns nothing and runs [f]
    on the calling domain, in input order.  [f] is typically a call
    of {!optimize_graph} or {!optimize_tree} with whatever parameters
    the batch uses; a plan cache and a telemetry registry are safe to
    share between its calls, and duplicate queries within one batch
    are optimized once (single flight).  A span collector is not:
    give each call its own, or none.  Once a task raises, no further
    task starts, and the exception of the lowest-indexed failing task
    is re-raised with its backtrace.
    @raise Invalid_argument if [jobs < 1]. *)

val verify_on_data :
  ?rows:int -> ?seed:int -> result -> (int, string) Result.t
(** Execute the chosen plan and the initial tree on a generated
    instance and compare bags; [Ok n] is the common tuple count. *)
