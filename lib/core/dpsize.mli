(** DPsize (Figure 1) — plans enumerated by increasing size.

    The Selinger-descended algorithm still at the core of commercial
    optimizers (the paper cites DB2): for every target size [s] and
    split [s1 + s2 = s], every pair of table entries of those sizes is
    tested for disjointness and connectedness.  Both tests — the
    [( * )] lines of Figure 1 — "fail far more often than they
    succeed", which is exactly what {!Counters.t.pairs_considered}
    exposes next to [ccp_emitted].

    Hyperedge support needs no structural change (Section 4.1): only
    the connectedness test generalizes, via
    {!Hypergraph.Graph.connecting_edges}.  It takes no validity
    filter: only {!Dphyp} does (see {!Optimizer.run}). *)

val solve_with_table :
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t * Plans.Plan.t option
