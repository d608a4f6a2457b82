(** TPC-H-shaped workloads.

    Not part of the paper's evaluation — included so the examples and
    extension benchmarks exercise realistic catalog skew instead of
    uniform synthetic graphs.  Cardinalities follow the TPC-H scale
    factor 1 row counts; foreign-key join selectivities are the
    textbook [1 / |referenced table|].

    Only the join structure matters to a join-ordering study, so each
    "query" is the join graph of the corresponding TPC-H query
    (selections, aggregations and the actual predicates' constants are
    out of scope). *)

type table =
  | Region
  | Nation
  | Supplier
  | Customer
  | Part
  | Partsupp
  | Orders
  | Lineitem

val all_tables : table list

val table_name : table -> string

val card : ?sf:float -> table -> float
(** Row count at the given scale factor (default 1.0). *)

val query_names : string list
(** ["q2"; "q3"; "q5"; "q7"; "q8"; "q9"; "q10"] *)

val query : ?sf:float -> string -> Hypergraph.Graph.t
(** Join graph of the named query at scale factor [sf] (default 1.0).
    @raise Invalid_argument for unknown names, and for an [sf] below
    [1e-4], where the supplier table would scale below one row, or so
    large that the lineitem table's cardinality is not finite.  Node indices follow the order of first
    mention in the query's FROM clause; every graph is connected. *)

val tables_of_query : string -> table list
(** The relations of the named query, in node-index order. *)
