(** Graph-aware top-down enumeration — a faithful stand-in for DeHaan
    & Tompa's Top-Down Partition Search (SIGMOD 2007), the
    "main competitor" the paper's introduction discusses.

    Where {!Top_down} tests every subset split of [S] (most of which
    fail connectivity), this enumerator generates only {e connected}
    splits: for a memoized set [S], the first component [S1] ranges
    over the connected subsets of the sub-hypergraph induced by [S]
    that contain [min S], grown DPhyp-style by neighborhood expansion
    inside [S]; [S2 = S \ S1] is then checked for connectivity and an
    edge between the halves.  This brings memoization's candidate
    count close to the csg-cmp-pair count, which is exactly the
    advance DeHaan & Tompa made over naive partitioning (here with
    hypergraph support the original lacked — the paper's conclusion
    names that as an open problem).

    Supports the same hypergraphs as DPhyp, including generalized
    edges; handles operator recovery and the dependent switch through
    the shared {!Emit.candidates}. *)

val solve :
  ?model:Costing.Cost_model.t ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Plan.t option
