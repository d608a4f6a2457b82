(** Domain-parallel DPhyp: layer-synchronous enumeration over one DP
    table.

    The sequential algorithm's only cross-root data dependency is the
    dpTable-membership connectivity test, and every csg-cmp-pair of
    size [k] reads only DP entries of size [< k].  This module
    exploits both facts (see doc/algorithm.mld, "Parallel
    enumeration"):

    + {b Oracle} — a pure connectivity oracle replaces dpTable
      membership (precomputed over all subsets for [n <= 18],
      per-domain memoized closure beyond).  The oracle may
      over-approximate exact connectivity; over-approximation only
      adds pairs with a side that never gets a DP entry, which the
      emitter drops, so plans, [ccp_emitted], [cost_calls] and
      [filter_rejected] are identical to the sequential run.
    + {b Enumerate} — each root of the descending root loop runs on
      some domain ({!Dphyp.run_root}) against a per-domain
      {!Hypergraph.Graph.copy_scratch}, recording its csg-cmp-pairs
      bucketed by result cardinality.
    + {b Emit} — for each layer [k = 2 .. n], the recorded size-[k]
      pairs are replayed in sequential emission order, in chunks
      spread across domains.  The table is read-only during a layer
      (all lookups hit finalized smaller layers); each chunk prices
      its candidates into its own buffer, and after the barrier the
      buffers are offered to the table in order.  The table so sees
      the candidates of every set in sequential order, so the winning
      plan — and hence the output for every [--jobs N] — is
      byte-identical to the sequential one.

    Budgets use the shared atomic tally of
    {!Counters.create_shared}: the total considered pairs across
    all domains is capped, overshooting the sequential trigger point
    by at most one in-flight pair per domain. *)

val solve_with_table :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?filter:Emit.filter ->
  counters:Counters.t ->
  jobs:int ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t * Plans.Plan.t option
(** {!Dphyp.solve_with_table} on a pool of [jobs] domains: the same
    table occupancy and plan, and the same emission-side counters
    folded into [counters], which must come from
    {!Counters.create_shared}.  The graph must fit one machine word
    ({!Nodeset.Node_set.small_capacity} relations); the caller is
    {!Optimizer.run}, which runs [Par_dphyp { jobs }] sequentially at
    [jobs <= 1] or on wider graphs.  [?obs] records one
    ["par:oracle"], ["par:enumerate"] and ["par:emit"] span per phase
    into the caller's open span; the enumerate span carries [jobs],
    [pairs_buffered] and [d<i>_pairs], the pairs domain [i]
    considered.
    @raise Counters.Budget_exhausted when the shared budget is spent.
    @raise Invalid_argument when [counters] are not shared or
    [jobs < 1]. *)

val connected_weakly :
  Hypergraph.Graph.t -> Nodeset.Node_set.t -> bool
(** The oracle's notion of connectivity: closure from the minimal
    node, growing by simple neighbors inside the set and by complex
    edges whose [u ∪ v] lies inside the set.  Over-approximates
    Definition 3 (it ignores hypernode orientation), which is exactly
    the slack the plan-identity argument tolerates.  Exposed for
    tests. *)
