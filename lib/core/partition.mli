(** DPhyp-on-partitions — the large-query tier.

    Partitions the query graph into connected blocks of bounded size
    (greedy edge clustering: union-find merging along the most
    selective simple edges first, complex-hyperedge covers merged
    unconditionally so every block stays contractible), solves each
    block {e exactly} and contracts it to one node, then runs
    IDP-k's rounds on the contracted graph — which also absorb
    whatever the clustering left as singletons (e.g. a star's
    satellites, which can only ever cluster with the hub).  It is IDP
    entered with pre-clustered blocks: both go through one contraction
    loop ({!Idp.solve_block}, {!Idp.contract}, {!Idp.rounds}), whose
    block DPs run on the blocks' induced subgraphs.

    This is the tier {!Adaptive.solve} selects automatically for
    queries wider than {!Nodeset.Node_set.small_capacity} relations,
    where exhaustive DP is out of reach; it plans 100–1000 relation
    chains, stars and snowflakes in tens of milliseconds to about a
    second (2-core host: chain-256 ~17 ms, star-128 ~60 ms,
    snowflake-991 ~1 s), and on
    graphs small enough for both, its cost is bounded below by exact
    DPhyp's (equal whenever one block covers the whole query — then
    the block DP {e is} the exact DP). *)

val default_stitch_k : int
(** IDP block size for the stitching rounds when [?k] is omitted
    (10). *)

val partition :
  Hypergraph.Graph.t -> block_size:int -> Nodeset.Node_set.t list
(** The clustering alone (exposed for tests): connected blocks of at
    most [block_size] nodes — except where a complex-hyperedge cover
    forces a bigger one — in ascending min-member order, singletons
    included.  Every node appears in exactly one block. *)

val solve :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  ?block_size:int ->
  ?k:int ->
  Hypergraph.Graph.t ->
  Plans.Plan.t option
(** Optimize via partition + per-block exact DP + IDP-k stitch, with
    blocks of at most [?block_size] relations (default 10).
    [?obs] records one ["partition:cluster"] span and a
    ["partition:block"] span per solved block, with the IDP rounds'
    spans following.  A budgeted [counters] makes the run raise
    {!Counters.Budget_exhausted} when its budget is spent.  [None] is
    reserved for graphs IDP itself cannot plan (disconnected inputs).
    @raise Invalid_argument if [block_size < 2] or [k < 2], before any
    work. *)
