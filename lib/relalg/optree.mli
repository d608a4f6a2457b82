(** Initial operator trees.

    Section 5.3: "a query (hyper-)graph alone does not capture the
    semantics of a query in a correct way — what is needed is an
    initial operator tree equivalent to the query".  This module is
    that tree: the input to conflict analysis (SES/TES) and the
    semantic reference that any reordered plan must be equivalent to.

    Leaf numbering follows Section 5.4: relations are numbered left to
    right in the operator tree, so leaf [i] appears left of leaf [j]
    in the tree iff [i < j].  [validate] enforces this together with
    predicate scoping. *)

type leaf = {
  node : int;  (** node index, also the hypergraph node *)
  name : string;  (** relation (or table function) name *)
  free : Nodeset.Node_set.t;
      (** tables this leaf's evaluation depends on — non-empty for
          table-valued functions / correlated subplans, which force
          dependent join variants (Section 5.6) *)
}

type t =
  | Leaf of leaf
  | Node of node

and node = {
  op : Operator.t;
  pred : Predicate.t;
  aggs : Aggregate.t list;  (** non-empty only for nestjoins *)
  left : t;
  right : t;
}

val leaf : ?free:Nodeset.Node_set.t -> int -> string -> t
(** [leaf i name] — base relation leaf. *)

val op : ?aggs:Aggregate.t list -> Operator.t -> Predicate.t -> t -> t -> t
(** Interior node constructor. *)

val join : Predicate.t -> t -> t -> t
(** Inner-join node, the common case. *)

val tables : t -> Nodeset.Node_set.t
(** The paper's [T(·)]: node set of all leaves under the tree. *)

val leaves : t -> leaf list
(** Leaves in left-to-right order. *)

val num_leaves : t -> int

val num_ops : t -> int

val operators : t -> node list
(** All interior nodes in post order (each child before its parent) —
    the order CalcTES wants ("called bottom-up for every operator"). *)

val leaf_free : t -> (int -> Nodeset.Node_set.t)
(** Lookup from node index to the leaf's free-variable set.  Node
    indices not present map to the empty set. *)

type error =
  | Bad_numbering of string
  | Pred_out_of_scope of string
  | Dependent_mismatch of string

val validate : t -> (unit, error) result
(** Checks: (1) leaves are numbered [0..n-1] left to right; (2) every
    predicate (and nestjoin aggregate) references only tables of its
    own subtree; (3) a leaf's free-variable set mentions only other
    relations of the query.  Whether a free variable is actually
    {e bound} by the time the leaf is evaluated is a plan-level
    concern, enforced during plan construction (the dependent-operator
    rules in [Core.Emit]) and checked by [Plans.Plan_check]. *)

val error_to_string : error -> string

val height : t -> int

val is_left_deep : t -> bool

val pp : Format.formatter -> t -> unit
(** Multi-line indented rendering. *)

val to_string : t -> string
