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
      some domain ({!Core.Dphyp.run_root}) against a per-domain
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
    {!Core.Counters.create_shared}: the total considered pairs across
    all domains is capped, overshooting the sequential trigger point
    by at most one in-flight pair per domain. *)

val run :
  ?obs:Obs.Span.ctx ->
  ?model:Costing.Cost_model.t ->
  ?filter:Core.Emit.filter ->
  ?budget:int ->
  pool:Pool.t ->
  Hypergraph.Graph.t ->
  Core.Optimizer.result
(** Optimize with DPhyp using every domain of [pool].  With a
    single-domain pool this dispatches to the sequential
    {!Core.Optimizer.run}, so [--jobs 1] is the unmodified algorithm.
    [?obs] records an ["enumerate:dphyp-par"] span with per-phase
    child spans and pool/per-domain attributes: [d<i>_pairs], the
    pairs domain [i] considered, and [d<i>_emit_s], the seconds it
    spent emitting buffered pairs (what [Driver.Pipeline]'s serving
    telemetry publishes as [joinopt_parallel_merge_seconds]).
    @raise Core.Counters.Budget_exhausted when [?budget] is spent. *)

val emit_seconds : Obs.Span.span -> (int * float) list
(** The [(i, d<i>_emit_s)] attributes of an
    ["enumerate:dphyp-par"] span, by domain; [[]] for any other
    span. *)

val connected_weakly :
  Hypergraph.Graph.t -> Nodeset.Node_set.t -> bool
(** The oracle's notion of connectivity: closure from the minimal
    node, growing by simple neighbors inside the set and by complex
    edges whose [u ∪ v] lies inside the set.  Over-approximates
    Definition 3 (it ignores hypernode orientation), which is exactly
    the slack the plan-identity argument tolerates.  Exposed for
    tests. *)
