(** Random initial operator trees for conflict-analysis testing.

    A tree has [n] leaves numbered 0 … n−1 left to right (the
    numbering Section 5.4 requires), a random bushy shape, operators
    drawn from a caller-supplied set, and one equality predicate per
    operator linking a random leaf of its left subtree to a random
    leaf of its right subtree (equality predicates are strong on all
    referenced tables, matching the paper's standing assumption).
    Nestjoin nodes get a uniquely-named COUNT aggregate. *)

val random_tree :
  seed:int -> n:int -> ops:Relalg.Operator.t list -> Relalg.Optree.t
(** @raise Invalid_argument if [n < 2] or [ops] is empty.  The result
    always passes {!Relalg.Optree.validate}. *)
