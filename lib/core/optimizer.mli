(** Uniform driver over all join-ordering algorithms.

    Benchmarks, tests and the CLI all go through this module so that
    every algorithm is invoked and measured identically.  Every
    algorithm minimizes the session cost model except [Dpconv], which
    minimizes the bottleneck C_max; its C_out reference mode is not an
    algorithm value, only a direct {!Dpconv.solve} call. *)

type algorithm =
  | Dphyp
  | Dpsize
  | Dpsub
  | Dpccp
  | Goo
  | Topdown
  | Tdpart
  | Idp of { k : int }
      (** iterative DP over blocks of [k] relations ({!Idp}) *)
  | Partition of { k : int }
      (** large-query tier: greedy edge-clustered partition, per-block
          exact DP, IDP-[k] stitch ({!Partition}) — the only DP-quality
          algorithm that runs past
          {!Nodeset.Node_set.small_capacity} relations *)
  | Adaptive
      (** budgeted ladder: DPhyp (or {!Partition} on wide queries),
          then IDP with shrinking k, then GOO ({!Adaptive}); on dense
          simple graphs GOO's plan bounds and prunes the exact run *)
  | Dpconv
      (** subset-convolution DP ({!Dpconv}): the exact bottleneck
          (C_max) optimum in Õ(2^n), with a witness plan costed under
          the session model — simple inner-join graphs of at most
          {!Dpconv.max_relations} relations only *)
(** An algorithm value carries every parameter its algorithm reads:
    IDP's block size and the partitioned tier's stitch size.  The
    other nine take only the graph. *)

val all : algorithm list
(** Every algorithm once, parameters at their defaults (see
    {!of_name}). *)

val name : algorithm -> string
(** The algorithm's name, without its parameters. *)

val of_name : string -> algorithm option
(** The inverse of {!name}, with the defaults: [Idp] at
    {!Idp.default_k} and [Partition] at {!Partition.default_stitch_k}. *)

val exact : algorithm -> bool
(** Does the algorithm guarantee the optimal plan (everything except
    GOO, IDP, Partition, Adaptive and Dpconv)?  Note Adaptive with an
    unlimited budget and IDP with [k >= n] do return the exact
    optimum, but carry no general guarantee; Dpconv is exact for the
    bottleneck objective C_max but not for the session cost model. *)

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
    on an algorithm with no fallback.

    [?filter] is an external validity filter ({!Emit.filter}: CD-C's
    conflict rules, or the Section 5.8 generate-and-test TES test);
    only [Dphyp] accepts one.

    This is the one place an algorithm value becomes a solver call.

    @raise Invalid_argument when [Dpccp] is given a hypergraph with
    non-simple edges, or a [filter] is passed to any algorithm but
    [Dphyp]. *)

val plan_source : algorithm -> Adaptive.tier option -> string
(** Provenance label of a plan: the algorithm name, refined to
    ["adaptive:<tier>"] when the adaptive ladder answered on the
    given rung — what EXPLAIN ANALYZE reports as the plan's
    source. *)
