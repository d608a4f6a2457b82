(** Database instances: data for the leaves of an operator tree.

    A relation leaf maps to a list of rows; a table-function leaf
    (one with free variables) maps to an OCaml function from the
    outer environment to rows — the substrate for dependent joins
    (Section 5.6: table-valued functions are the canonical source of
    dependence).

    {!for_tree} builds a deterministic random instance whose attribute
    sets are exactly those the tree's predicates and aggregates
    reference, with values drawn from a small domain so joins actually
    match — the workhorse of the semantic-equivalence property
    tests. *)

type source =
  | Rows of Env.row list
  | Func of (Env.t -> Env.row list)

type t

val make : (int * source) list -> t

val source : t -> int -> source
(** @raise Not_found for unknown relations. *)

val rows_of : t -> outer:Env.t -> int -> Env.row list
(** Materialize a leaf's rows (applying the function to [outer] for
    table functions). *)

val for_tree :
  ?rows:int -> ?domain:int -> seed:int -> Relalg.Optree.t -> t
(** Random instance: every leaf gets [rows] (default 6) rows with the
    harvested attributes, integer values uniform in [0, domain)
    (default 4).  Leaves with free variables become table functions
    whose output depends on the outer binding (a column of the first
    free table shifts the generated values), exercising true
    dependence. *)
