(** Fast enumeration of the subsets of a node set.

    This is the Vance–Maier trick (SIGMOD 1996): the non-empty subsets
    of a bit mask [m] are produced by iterating
    [s' = (s' - m) land m], which walks them in increasing numeric
    order without ever touching a bit outside [m].  Every inner loop
    of DPhyp, DPsub and the brute-force csg enumerators is built on
    this primitive. *)

val iter_nonempty : Node_set.t -> (Node_set.t -> unit) -> unit
(** [iter_nonempty m f] calls [f] on every non-empty subset of [m]
    (including [m] itself), in increasing numeric order.  [f] is
    called [2^|m| - 1] times. *)

val iter_proper_nonempty : Node_set.t -> (Node_set.t -> unit) -> unit
(** Like {!iter_nonempty} but excludes [m] itself. *)

val iter_all : Node_set.t -> (Node_set.t -> unit) -> unit
(** Every subset including the empty one. *)

val fold_nonempty : Node_set.t -> ('a -> Node_set.t -> 'a) -> 'a -> 'a
(** Fold version of {!iter_nonempty}. *)

val exists_nonempty : Node_set.t -> (Node_set.t -> bool) -> bool
(** [exists_nonempty m p] is true iff some non-empty subset of [m]
    satisfies [p]; stops at the first witness. *)

val count : Node_set.t -> (Node_set.t -> bool) -> int
(** Number of non-empty subsets of [m] satisfying the predicate. *)

val to_list_nonempty : Node_set.t -> Node_set.t list
(** All non-empty subsets, increasing numeric order.  Intended for
    tests on small masks. *)
