(** Reference connectivity test for hypergraph node sets.

    Definition 3 of the paper is recursive: a set [S] is connected iff
    it is a singleton or splits into two connected parts joined by an
    edge.  This module evaluates that definition directly with
    memoization.  It is the {e specification}: the DP algorithms never
    call it on their hot paths (they use dpTable membership instead,
    exploiting subsets-before-supersets enumeration), but DPsub's
    pre-filter, the brute-force csg enumerator and the test suite all
    lean on it. *)

type cache

val make_cache : Graph.t -> cache
(** A memo table tied to one hypergraph. *)

val is_connected : cache -> Nodeset.Node_set.t -> bool
(** Is the node-induced subgraph over the given set connected
    (Definition 3, with generalized edges per Definition 7)?  The
    empty set is not connected. *)

val is_connected_graph : Graph.t -> bool
(** Is the whole hypergraph connected? *)

