(** IDP-k — iterative dynamic programming over blocks of at most [k]
    relations.

    The budget-friendly middle ground between exact DPhyp and greedy
    GOO: each round runs {e exact} DPhyp on the subgraph induced by a
    greedily chosen block of up to [k] relations ({!solve_block}),
    contracts the best contractible sub-plan to one node of a coarser
    graph ({!Hypergraph.Graph.contract}), whose leaf the next block DP
    seeds with that sub-plan's cost, and repeats until one plan covers
    the whole query.  Work per round is bounded by the 3{^k} of exact
    DP on [k] relations, so total work is polynomial in [n] for fixed
    [k]; with [k >= n] the single round is plain DPhyp, reproducing
    the exact optimum.

    The returned plan is always flattened back onto the input graph —
    node sets, edge ids, cardinalities and costs all refer to [g], so
    {!Plans.Plan_check.check} and {!Plans.Plan.to_optree} apply
    directly. *)

val default_k : int
(** Block size used when [?k] is omitted (7). *)

val solve :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  ?k:int ->
  Hypergraph.Graph.t ->
  Plans.Plan.t option
(** Optimize with IDP-[k]: {!rounds} from {!start}[ g].  [?obs]
    records one ["idp-round"] span per round (attributes: round
    number, remaining nodes, effective block size, whether the round
    widened or finished).  A round whose block holds no contractible
    connected subset (complex hyperedges can straddle every candidate)
    widens its block size by one and retries, degenerating to plain
    exact DP in the worst case rather than failing; [None] is
    therefore reserved for graphs exact DPhyp itself cannot plan
    (disconnected inputs).  Callers wanting a guaranteed answer fall
    back to {!Goo} (which is what {!Adaptive.solve} automates).  A
    budgeted [counters] makes the run raise
    {!Counters.Budget_exhausted} when its budget is spent.
    @raise Invalid_argument if [k < 2], before any work. *)

(** {2 Block contraction}

    The loop IDP shares with {!Partition.solve}, which enters it with
    pre-clustered blocks. *)

type state = private {
  graph : Hypergraph.Graph.t;  (** the current, contracted graph *)
  emap : int array;  (** current edge id -> root edge id *)
  base : Plans.Plan.t array;  (** current node -> its root plan *)
  cur_of : int array;  (** root node -> current node *)
}

val start : Hypergraph.Graph.t -> state
(** The uncontracted graph: identity maps, scans as base plans. *)

val flatten :
  model:Costing.Cost_model.t -> state -> Plans.Plan.t -> Plans.Plan.t
(** A current-graph plan rebuilt onto the root graph: each [Scan v]
    becomes [base.(v)] and each join is re-costed over the root edges;
    cardinalities and costs are reproduced exactly. *)

val contract : model:Costing.Cost_model.t -> state -> Plans.Plan.t -> state
(** Contract a plan's node set, which must be
    {!Hypergraph.Graph.contractible}, to one node standing for it. *)

type block = private {
  ind : Hypergraph.Graph.induced;
      (** the block's induced subgraph, on which its DP ran *)
  dp : Plans.Dp_table.t;  (** the block DP's table, over [ind.sub] *)
  plan : Plans.Plan.t option;
      (** the plan covering the whole block, if its induced subgraph
          is connected, in the current graph's node and edge ids *)
}

val solve_block :
  ?obs:Obs.Span.ctx ->
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  state ->
  label:string ->
  span:string ->
  attrs:(string * Obs.Span.value) list ->
  Nodeset.Node_set.t ->
  (Obs.Span.t option -> block -> 'a) ->
  'a
(** [solve_block st ~label ~span ~attrs subset k] runs
    {!Dphyp.solve_induced} on the subgraph of the current graph induced
    by [subset], each leaf seeded with its base plan's cost, and passes
    the result to [k]; both run under the span [span] and the DP-table
    context [label], nested in the caller's.  The subgraph renumbers
    [subset] in rank order, so the block DP works on [|subset|]-bit sets
    and a flat table however wide the query, while its plans, counters
    and provenance equal those of DPhyp confined to [subset] in place.
    The plan's leaves carry the seeded costs until {!flatten}ed. *)

val rounds :
  ?obs:Obs.Span.ctx ->
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  k:int ->
  state ->
  Plans.Plan.t option
(** IDP's rounds from [state] at block size [k] (callers refuse
    [k < 2]), the plan flattened onto the root graph.  Round [i] is a
    {!solve_block} labelled ["idp:round:<i>"] under an ["idp-round"]
    span. *)
