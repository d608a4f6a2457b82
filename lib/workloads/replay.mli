(** Replayed optimizer traffic: Zipf-skewed repetition over a family
    of query graphs.

    A plan cache only pays off when the same query (shape) comes back;
    real optimizer traffic is heavily skewed — a few hot templates
    dominate, with a long tail of one-offs.  This module models that
    as a fixed {e universe} of distinct graphs (the templates) and a
    {e request stream} of indexes into it drawn from a Zipf
    distribution: template [i] (0-based popularity rank) is requested
    with probability proportional to [1 / (i+1)^alpha].  [alpha = 0]
    is uniform traffic (worst case for a cache smaller than the
    universe); [alpha ~ 1] is the classic web/workload skew.

    Streams are deterministic for a given seed, so benchmark runs are
    reproducible and warm/cold comparisons replay byte-identical
    request sequences. *)

type t = {
  universe : Hypergraph.Graph.t array;  (** distinct query templates *)
  requests : int array;  (** indexes into [universe], in arrival order *)
}

val of_generator :
  ?seed:int ->
  ?alpha:float ->
  variants:int ->
  length:int ->
  (int -> Hypergraph.Graph.t) ->
  t
(** [of_generator gen ~variants ~length] builds a universe of
    [variants] templates ([gen 0 .. gen (variants-1)]) and a Zipf
    request stream of [length] draws.  [alpha] (default 1.0) is the
    skew exponent; [seed] (default 42) drives the stream PRNG only —
    template contents are whatever [gen] makes of its index.
    @raise Invalid_argument if [variants < 1], [length < 0] or
    [alpha < 0]. *)

val star : ?seed:int -> ?alpha:float -> ?satellites:int ->
  variants:int -> length:int -> unit -> t
(** Star-query replay: [variants] star graphs with [satellites]
    satellites (default 15, i.e. the paper's 16-relation star) whose
    catalogs differ by seed — distinct cardinalities/selectivities,
    hence distinct cache entries. *)

val graph : t -> int -> Hypergraph.Graph.t
(** [graph w i] — the template of request [i] (i.e.
    [w.universe.(w.requests.(i))]). *)
