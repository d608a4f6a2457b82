(** Bushy join plans — what an optimizer run returns.

    Every plan node records the set of relations it covers, its
    estimated output cardinality, and its accumulated cost under the
    cost model active during optimization.  Join nodes remember which
    hyperedges they applied so that the original predicates (and the
    operator, per Section 5.4's "associate with each hyperedge the
    operator from which it was derived") can be recovered.

    The DP core never builds these while it searches: {!Dp_table}
    keeps the winning split of each node set as plain numbers and
    builds the tree of the final plan once, through {!make_join}.
    Both sides rely on the same {e join resolution} below, which
    decides from two node sets alone which edges a join applies and
    which operator it takes.  That is sound because every plan over
    [s] has applied exactly the edges whose cover lies in [s]. *)

type t = {
  set : Nodeset.Node_set.t;  (** relations covered *)
  card : float;  (** estimated output cardinality *)
  cost : float;  (** total cost including subplans *)
  tree : tree;
}

and tree =
  | Scan of int
      (** relation access: cost 0 and the relation's catalog
          cardinality.  Inside IDP a leaf of a contracted graph may
          stand for a block plan and carry that plan's cost; such a
          plan is flattened before it leaves the optimizer (see
          [Core.Idp]), and {!Plan_check} flags one that was not. *)
  | Join of join

and join = {
  op : Relalg.Operator.t;
      (** operator actually applied — already switched to its
          dependent variant when Section 5.6's test fired *)
  edge_ids : int list;
      (** hyperedges whose predicates were applied at this node:
          the connecting edges, plus any pending inner edge that this
          join is the first to cover *)
  sel : float;
      (** combined selectivity of the applied predicates, kept so a
          plan built on a contracted graph can be re-costed
          node-for-node on the original graph (see Idp) *)
  left : t;
  right : t;
}

val scan : Hypergraph.Graph.t -> int -> t
(** Plan for a single relation: cost 0, cardinality from catalog. *)

val join :
  Costing.Cost_model.t ->
  op:Relalg.Operator.t ->
  edge_ids:int list ->
  sel:float ->
  t -> t -> t
(** [join model ~op ~edge_ids ~sel l r] — a join node with estimated
    cardinality and cost filled in. *)

(** {2 Join resolution}

    Allocation-free decisions about a join of two disjoint node sets.
    A {e resolution code} describes the pair: the edges it applies and
    the non-inner edge (if any) whose operator and orientation it
    must take.  An {e operator code} names the operator of one
    argument order: a plain join or an edge's operator, possibly
    switched to its dependent variant (Section 5.6). *)

val rejected : int
(** The resolution or operator code of an invalid join. *)

val resolve :
  Hypergraph.Graph.t ->
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  Costing.Candidate.t ->
  int
(** [resolve g s1 nb1 s2 nb2 c] resolves the pair, where [nb1] and
    [nb2] are the sides' {!Hypergraph.Graph.simple_neighborhood}s: the
    edges come from {!Hypergraph.Graph.gather_pair_edges}, which scans
    only the cut between the sides.  The join applies its connecting
    edges (aligned with the cut, Definition 7) and its pending edges
    (covered by [s1 ∪ s2], meeting both sides, not aligned), which a
    real optimizer must still evaluate once, as filters.  Returns {!rejected} when no edge connects the pair, a
    pending edge is non-inner (the decomposition is invalid), or two
    non-inner edges connect it; otherwise sets [c.sel] to the
    connecting selectivities multiplied in ascending id order, times
    the pending ones folded in descending id order. *)

val flip : int -> int
(** The resolution code of the same pair with its sides swapped. *)

val backward : int -> bool
(** Does the pair's non-inner edge have its [u] side in [s2]? *)

val op_code :
  Hypergraph.Graph.t ->
  int ->
  left:Nodeset.Node_set.t ->
  right:Nodeset.Node_set.t ->
  int
(** [op_code g res ~left ~right] — operator code of [left op right],
    where [res] resolves [(left, right)]; {!rejected} when the edge's
    operator is not commutative and points the other way, when
    [left] depends on [right], or when a full outer join would need a
    dependent variant. *)

val operator : Hypergraph.Graph.t -> int -> Relalg.Operator.t
(** The operator an operator code names. *)

val applied_edges :
  Hypergraph.Graph.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> int list
(** Ids of the edges a join of the pair applies: the connecting edges
    ascending, then the pending ones ascending. *)

val make_join :
  Hypergraph.Graph.t -> code:int -> card:float -> cost:float -> t -> t -> t
(** [make_join g ~code ~card ~cost l r] — the join node [l op r] with
    the given estimates, its operator from [code] and its edges and
    selectivity from {!resolve}. *)

val estimates : t -> (Nodeset.Node_set.t * float) list
(** [(relations, estimated cardinality)] of every plan node in
    postorder (children before parents, leaves included).  The
    relation set equals [T(subtree)] of the operator tree
    {!to_optree} emits, so EXPLAIN ANALYZE joins these annotations
    against executed row counts by set. *)

val to_optree : Hypergraph.Graph.t -> t -> Relalg.Optree.t
(** Re-materialize the plan as an operator tree: each join node
    carries the conjunction of its edges' predicates, the nestjoin
    aggregates if any, and the recovered operator.  Leaf numbering is
    the plan's, i.e. not necessarily left-to-right — the executor does
    not care. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering like [((R0 join R1) leftouter R2)]. *)

val pp_verbose : Hypergraph.Graph.t -> Format.formatter -> t -> unit
(** Multi-line rendering with names, cardinalities and costs. *)

val to_string : t -> string
