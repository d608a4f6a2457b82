(** DPsub — plans enumerated by subset value.

    For every node set [S] in increasing numeric order and every
    proper non-empty split [S = S1 ⊎ S2], the best plans of the halves
    are joined if both exist (dpTable membership doubles as the
    connectivity test, since every subset precedes its supersets in
    numeric order) and an edge connects them.  The split loop is the
    Vance–Maier enumeration, which is why DPsub degrades on sparse
    queries: it visits all [2^|S|] splits even when almost none are
    csg-cmp-pairs — the counter gap DPsub shows in the benches.

    Hyperedge support again needs only the generalized connectedness
    test (Section 4.1).  It takes no validity filter: only {!Dphyp}
    does (see {!Optimizer.run}). *)

val solve_with_table :
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t * Plans.Plan.t option
