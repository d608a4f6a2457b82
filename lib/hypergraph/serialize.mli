(** Plain-text serialization of query hypergraphs.

    A line-oriented format carrying exactly what the optimizer needs —
    relations with cardinalities and free-variable sets, hyperedges
    with sides, flexible set, operator and selectivity:

    {v
    # comment / blank lines ignored
    rel R1 card=100
    rel f card=10 free=0
    edge u=0 v=1 op=join sel=0.1
    edge u=0,1,2 v=3,4,5 op=leftouter sel=0.05
    edge u=0 v=2 w=1 sel=0.2
    v}

    Node indices refer to relations in file order.  Join {e predicate
    expressions} are not part of the format: a deserialized edge
    carries a synthetic equality between the minimum nodes of its
    sides, which is enough for optimization (costing uses only the
    selectivity) but not for executing the query on data. *)

val to_string : Graph.t -> string

val add_graph : Buffer.t -> Graph.t -> unit
(** [add_graph buf g] appends {!to_string}'s text of [g] to [buf], in
    one pass without [Printf]: a caller that prefixes the text (the
    plan cache's exact key) writes both into one buffer. *)

val of_string : string -> (Graph.t, string) result
(** Errors carry a line number and a reason.  A [card] must be finite
    and positive: [card=inf] or an overflowing literal such as
    [card=1e400] is an error, not an infinite relation. *)

val write_file : string -> Graph.t -> unit

val read_file : string -> (Graph.t, string) result
