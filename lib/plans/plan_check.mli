(** Structural validation of plans.

    Every optimizer output should satisfy these invariants regardless
    of cost model or enumeration strategy; the test suite runs this
    checker over every plan the algorithms produce:

    - the node sets of any join's children are disjoint and union to
      the parent's set;
    - leaf sets are singletons matching their scan, and a scan of
      relation [i] has cost 0 and [i]'s cardinality;
    - every hyperedge of the query is {e applied exactly once}, namely
      at the first join where both of its sides are assembled — a
      predicate applied twice or never means a wrong result;
    - each applied edge actually connects the join's children (with
      the orientation matching the operator's argument order for
      non-commutative operators);
    - dependent operators are used exactly when the right child has
      outstanding free variables bound by the left child. *)

type issue =
  | Overlapping_children of string
  | Wrong_set of string
  | Bad_leaf of string
      (** a scan whose cost is not 0 or whose cardinality is not its
          relation's — e.g. an IDP block plan that was not flattened *)
  | Edge_not_connecting of string
  | Edge_missed of string  (** an edge both of whose sides are covered
                               somewhere, yet never applied *)
  | Edge_duplicated of string
  | Bad_orientation of string
  | Dependence_violation of string

val issue_to_string : issue -> string

val check : Hypergraph.Graph.t -> Plan.t -> issue list
(** Empty list = structurally valid.  Does not re-derive optimality,
    only well-formedness. *)
