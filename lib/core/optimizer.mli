(** Uniform driver over all join-ordering algorithms.

    Benchmarks, tests and the CLI all go through this module so that
    every algorithm is invoked and measured identically. *)

type algorithm =
  | Dphyp
  | Dpsize
  | Dpsub
  | Dpccp
  | Goo
  | Topdown
  | Tdpart
  | Idp  (** iterative DP over blocks of [k] relations ({!Idp}) *)
  | Partition
      (** large-query tier: greedy edge-clustered partition, per-block
          exact DP, IDP-k stitch ({!Partition}) — the only DP-quality
          algorithm that runs past
          {!Nodeset.Node_set.small_capacity} relations *)
  | Adaptive
      (** budgeted ladder: DPhyp (or {!Partition} on wide queries),
          then IDP with shrinking k, then GOO ({!Adaptive}); on dense
          simple graphs a subset-convolution pre-tier ({!Dpconv})
          bounds and prunes the exact run *)
  | Dpconv
      (** subset-convolution DP ({!Dpconv}): exact bottleneck (C_max)
          optimum in Õ(2^n), or a certified C_out upper bound — simple
          inner-join graphs of at most {!Dpconv.max_relations}
          relations only *)

val all : algorithm list

val name : algorithm -> string

val of_name : string -> algorithm option

val supports_filter : algorithm -> bool
(** Only the DP algorithms accept an external validity filter
    (TES-generate-and-test mode). *)

val exact : algorithm -> bool
(** Does the algorithm guarantee the optimal plan (everything except
    GOO, IDP, Partition, Adaptive and Dpconv)?  Note Adaptive with an
    unlimited budget and IDP with [k >= n] do return the exact
    optimum, but carry no general guarantee; Dpconv is exact for the
    bottleneck objective C_max but not for the session cost model. *)

val default_k : algorithm -> int
(** What an omitted [?k] stands for: {!Partition.default_stitch_k} for
    [Partition], {!Idp.default_k} for the rest. *)

type result = {
  plan : Plans.Plan.t option;
  counters : Counters.t;
  dp_entries : int;  (** size of the DP/memo table, 0 if none kept *)
  tier : Adaptive.tier option;
      (** which rung of the adaptive ladder produced the plan;
          [None] for every non-adaptive algorithm *)
  attempts : Adaptive.attempt list;
      (** the full tier-ladder history; [[]] for every non-adaptive
          algorithm *)
}

val run :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?filter:Emit.filter ->
  ?budget:int ->
  ?k:int ->
  ?dpconv_objective:Dpconv.objective ->
  algorithm ->
  Hypergraph.Graph.t ->
  result
(** Run one algorithm on one query graph.

    [?obs] records an ["enumerate:<algo>"] span (annotated with the
    final counters and DP-table occupancy) plus the per-tier and
    per-IDP-round spans of the algorithms that have them; omitting it
    runs the completely un-instrumented path, so enumeration work and
    counters are byte-identical with and without observability.

    [?budget] caps the considered pairs ({!Counters.tick_pair}).  For
    [Adaptive] it drives the fallback ladder and never escapes; for
    every other algorithm exceeding it raises
    {!Counters.Budget_exhausted} — the caller asked for a hard limit
    on an algorithm with no fallback.  [?k] is the IDP block size of
    [Idp] and of [Partition]'s stitching (default {!default_k}[ algo];
    ignored by every other algorithm).
    [?dpconv_objective] selects [Dpconv]'s objective (default
    {!Dpconv.Cmax}; ignored by every other algorithm).

    @raise Invalid_argument when [Dpccp] is given a hypergraph with
    non-simple edges, or a [filter] is passed to an algorithm that
    does not support one. *)

val plan_source : algorithm -> result -> string
(** Provenance label of the returned plan: the algorithm name, refined
    to ["adaptive:<tier>"] when the adaptive ladder answered on a
    specific rung — what EXPLAIN ANALYZE reports as the plan's
    source. *)
