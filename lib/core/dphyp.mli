(** DPhyp — the paper's core contribution (Section 3).

    Enumerates exactly the csg-cmp-pairs of a (generalized) query
    hypergraph in an order valid for dynamic programming: connected
    subgraphs grow from each node by recursively adding subsets of the
    current neighborhood [N(S, X)], with exclusion sets preventing
    duplicate enumeration; complements grow the same way starting from
    the neighborhood seeds of the finished csg.

    Two deliberate corrections to the paper's pseudocode, both
    documented in DESIGN.md: [EnumerateCmpRec] computes its
    neighborhood once and recurses with [X ∪ N] (the printed version
    would recurse over an empty neighborhood), and [EmitCsg] grows the
    exclusion set with the already-considered seeds before each
    [EnumerateCmpRec] call (otherwise complements containing several
    neighbors are emitted once per contained neighbor).  Both
    recursions also skip the recursive calls whose neighborhood must
    be empty (the grown set and [X ∪ N] already cover every node):
    same pairs, order and counts, fewer [neighborhood_calls]. *)

val solve :
  ?model:Costing.Cost_model.t ->
  ?filter:Emit.filter ->
  ?bound:float ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Plan.t option
(** Optimize the query; [None] if no complete plan exists (possible
    only for disconnected graphs — see
    {!Hypergraph.Graph.ensure_connected} — or when a filter rejects
    every decomposition of the full set).  Defaults: C_out model, no
    filter, fresh counters.  A budgeted [counters] makes the run raise
    {!Counters.Budget_exhausted} once the budget is spent.

    [bound] is a known upper bound on the optimal cost (see
    {!Emit.make}): table entries costing more are dropped, and —
    because dpTable membership doubles as the connectivity oracle —
    every enumeration subtree growing out of a dropped entry is
    skipped too.  The returned plan is identical to the unbounded
    run's whenever the bound is valid and the model is additive with
    non-negative join costs ([Adaptive] feeds it GOO's plan cost
    × (1 + 1e-9) on dense simple graphs). *)

val solve_with_table :
  ?model:Costing.Cost_model.t ->
  ?filter:Emit.filter ->
  ?bound:float ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t * Plans.Plan.t option
(** Like {!solve} but also returns the full DP table (for inspection
    of all connected subgraphs and their best plans). *)

val solve_induced :
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  leaf_cost:(int -> float) ->
  Hypergraph.Graph.induced ->
  Plans.Dp_table.t * Plans.Plan.t option
(** Exact DPhyp on a block's induced subgraph
    ({!Hypergraph.Graph.induced}): {!solve_with_table} on [sub] without
    filter support, each leaf [v] seeded with cost [leaf_cost v] (IDP
    passes the cost of the block plan a contracted node stands for).
    Table and plan speak of [sub]'s nodes and edges; the table's offer
    hook sees its sets lifted to the enclosing graph.  The plan's
    [Scan] leaves carry the seeded costs, to be flattened before they
    leave the optimizer ({!Idp.flatten}). *)

val run :
  emit:
    (Nodeset.Node_set.t ->
    int ->
    Nodeset.Node_set.t ->
    Nodeset.Node_set.t ->
    int ->
    Nodeset.Node_set.t ->
    unit) ->
  counters:Counters.t ->
  ?leaf_cost:(int -> float) ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t ->
  unit
(** The whole-graph enumeration on a fresh table: seed every leaf
    (cost [leaf_cost v], default 0), then visit the roots in
    descending order, calling [emit s1 i1 nb1 s2 i2 nb2] on each
    csg-cmp-pair, where [i1] and [i2] are the sides' table entry ids
    (from the membership probes that found them connected) and [nb1]
    and [nb2] their carried {!Hypergraph.Graph.simple_neighborhood}s
    (what {!Emit.emit} takes).  Connectivity is table membership, so [emit] must install
    the table entry for [s1 ∪ s2]; {!solve_with_table} passes
    {!Emit.emit}, a test can wrap it to inspect each pair. *)

val enumerate_ccps :
  Hypergraph.Graph.t ->
  (Nodeset.Node_set.t * Nodeset.Node_set.t) list
(** Run the algorithm and report every csg-cmp-pair in emission order
    (the trace of Figure 3).  Pairs come out canonical —
    [min S1 < min S2] holds because complements only ever grow from
    neighborhood seeds above [min S1].  Tests compare this list (as a
    set, and for duplicates) against
    {!Hypergraph.Csg_enum.csg_cmp_pairs}, and check the
    subsets-before-supersets DP ordering on it. *)

val min_pairs : Hypergraph.Graph.t -> int
(** A certified lower bound on the pairs {!solve} considers (ticks
    through {!Counters.tick_pair}) when run without [?bound] or
    [?filter], under either cost model, saturating at [max_int].
    O(n + m); exact on stars, where it equals
    (n − 1)·2{^(n−2)}.  [Adaptive] uses it to skip an exact rung
    that would certainly exhaust its budget.

    Call a node {e eligible} when it has no free variables, no
    non-inner edge mentions it, its cardinality is positive and the
    selectivities of the edges mentioning it multiply to at least
    2{^-1000}.  For a centre [v] of positive cardinality let [D] be
    its simple-edge neighbours that are eligible, [d = |D|].  The bound
    is the largest [d·2{^(d−1)}] over all centres.

    Proof.  (1) {e Ticks.}  Every test of a pair in [EmitCsg] and
    [EnumerateCmpRec] ticks once and emits at most once.  Which
    complements are tested for a csg [S1] does not depend on the table,
    and by completeness they include every [S2] making [(S1, S2)] a
    csg-cmp-pair; the table only decides whether [EmitCsg(S1)] runs at
    all, which it does for a singleton or for an [S1] with a table
    entry.  So every csg-cmp-pair whose csg side has an entry costs
    its own tick.
    (2) {e Entries.}  Every [A = {v} ∪ T], [T ⊆ D], gets an entry, by
    induction on [|T|].  [{v}] is a leaf.  Otherwise pick [t ∈ T]:
    [(A \ {t}, {t})] is a csg-cmp-pair, joined by the simple edge
    [v–t], and both sides have entries, so DPhyp emits it, before [A]
    is tested as a csg by its subsets-before-supersets order.  Every
    edge inside [A] is inner: a non-inner one mentions two or more
    nodes of [A], so one of [D], and no non-inner edge mentions a node
    of [D].  So resolution accepts the pair as an inner join.  With
    [{t}] on the left the operator code is never rejected: [t] depends
    on nothing, and a dependence of [v] on [t] only makes the join
    dependent, which inner joins allow.  (So [v] may have free
    variables.)  The price is not NaN, under either cost model: by
    induction every entry inside the star has a non-negative cost and
    a positive cardinality (an inner join's is at least 1), either
    possibly ∞; and the pair's selectivity multiplies some of the
    selectivities of the edges mentioning [t], whose full product is
    at least 2{^-1000}, so it stays above 0.  NaN would need [∞·0].
    Without a bound and a filter, the first candidate that is not NaN
    always installs the entry.
    (3) {e Count.}  The pairs [({v} ∪ T', {t})], [t ∈ D],
    [T' ⊆ D \ {t}], are [d·2{^(d−1)}] distinct csg-cmp-pairs.  By (2)
    both sides have entries, so by (1) each costs a tick. *)
