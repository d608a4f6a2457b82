(** Brute-force enumeration of connected subgraphs and csg-cmp-pairs.

    The number of csg-cmp-pairs is the paper's lower bound on the cost
    function calls of {e any} dynamic-programming join enumerator
    (Section 2.2).  This module computes the exact sets by exhaustive
    enumeration — exponential, intended for testing DPhyp's emission
    trace and for the machine-independent [#ccp] columns of the
    benchmark report. *)

val count_connected_subgraphs : Graph.t -> int

val csg_cmp_pairs :
  Graph.t -> (Nodeset.Node_set.t * Nodeset.Node_set.t) list
(** All csg-cmp-pairs (Definition 4) in canonical form, i.e.
    restricted to [min S1 < min S2] so that symmetric duplicates are
    not listed — the exact set DPhyp must emit, each exactly once. *)

val count_csg_cmp_pairs : Graph.t -> int

val estimate_connected_subgraphs : Graph.t -> int
(** Cheap (polynomial) estimate of {!count_connected_subgraphs} for
    pre-sizing DP hash tables.  The 2- and 3-node layers are counted
    exactly from {!Graph.simple_neighbors} sets — O(Σ deg²) set
    operations, plus O(1) {!Graph.connects} probes per distinct triple
    a complex edge covers — and the remaining layers extrapolated
    geometrically with ratio c₃/c₂, then doubled for slack and capped
    at 2²¹.  Graphs of more than 62 nodes get a linear hint instead.
    A sizing hint, not a count — it deliberately over-estimates so a
    table created with it does not rehash while DPhyp fills it on the
    common shapes. *)

val count_join_trees : Graph.t -> int
(** Number of cross-product-free {e ordered} bushy join trees for the
    query (both argument orders counted, as for a commutative join) —
    the classic search-space size metric.  Computed by dynamic
    programming over connected subsets:
    [trees(S) = sum of trees(S1)·trees(S2)·2] over the canonical
    csg-cmp-pairs partitioning [S].  Known closed forms validate it:
    chains give [2^(n−1)·Catalan(n−1)], cliques give
    [(2n−2)! / (n−1)!]. *)
