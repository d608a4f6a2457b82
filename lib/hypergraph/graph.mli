(** Query hypergraphs (Definitions 1–4 and 6–7 of the paper).

    A hypergraph bundles the relations of a query (with cardinalities
    and free-variable sets for dependent evaluation) and its
    hyperedges.  Construction precomputes per-node indexes — simple
    neighbor masks and, for each node, the complex edges and the edges
    of any kind whose cover contains it — and owns a scratch arena
    that makes candidate generation allocation-free on the common
    path.

    The enumeration accessors take a set together with its simple
    neighborhood ({!simple_neighborhood}), which DPhyp carries down
    its recursion, so their cost scales with the cut between the two
    sides of a pair, not with the sides: {!connects} is one word test
    unless both sides meet a complex edge, {!gather_pair_edges} scans
    the incidence lists of the smaller side's nodes on the cut (and on
    complex edges) only, and {!neighborhood} adds only the complex
    candidates to the carried set.  Callers that carry nothing pass
    [simple_neighborhood g s].

    Because of that arena the accessors are {b not reentrant}: do not
    call them from inside a callback of another accessor on the same
    graph, and do not share a [t] between domains.  Each call fully
    consumes the arena before returning, so ordinary sequential use is
    safe.

    The node order required by the algorithms is the natural order on
    node indices [0 .. n-1]. *)

type rel = {
  name : string;
  card : float;  (** base cardinality |R| *)
  free : Nodeset.Node_set.t;
      (** tables this relation's evaluation depends on (table-valued
          functions); drives the dependent-operator decision of
          Section 5.6 *)
}

val base_rel : ?free:Nodeset.Node_set.t -> ?card:float -> string -> rel
(** Relation descriptor; default cardinality 1000. *)

type t

val make : rel array -> Hyperedge.t array -> t
(** Build a hypergraph.  Edge ids must equal their array index (use
    {!of_edges} to have them assigned).  @raise Invalid_argument on
    inconsistent ids, out-of-range nodes, or more than
    [Node_set.max_nodes] relations. *)

val num_nodes : t -> int

val all_nodes : t -> Nodeset.Node_set.t
(** [{0..n-1}]. *)

val relation : t -> int -> rel

val cardinality : t -> int -> float

val free_of : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** Union of the free-variable sets of the given relations — the
    paper's [FT(P)] for the subplan over those relations. *)

val edges : t -> Hyperedge.t array
(** All edges; do not mutate. *)

val num_edges : t -> int

val edge : t -> int -> Hyperedge.t

val edge_cover : t -> int -> Nodeset.Node_set.t
(** Precomputed [u ∪ v ∪ w] of the edge with the given id. *)

val simple_neighbors : t -> int -> Nodeset.Node_set.t
(** Precomputed union of the opposite endpoints of all simple edges
    incident to a node. *)

val simple_neighborhood : t -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** Union of {!simple_neighbors} over the members of a set (not yet
    excluding the set itself). *)

val complex_edges : t -> Hyperedge.t list
(** Edges that are not simple, in id order. *)

val neighborhood :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t ->
  Nodeset.Node_set.t
(** [neighborhood g s nb x], where [nb] is [simple_neighborhood g s],
    is the paper's [N(S, X)] (Equation 1):
    the union over non-subsumed eligible hypernodes [v] of [min(v)],
    where a hypernode [v] is eligible if some edge leads from inside
    [S] to [v] and [v] is disjoint from both [S] and [X].  Generalized
    edges [(u,v,w)] contribute the dynamic hypernode [v ∪ (w \ S)]
    (Section 6). *)

val connects :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> bool
(** [connects g s1 nb1 s2], where [nb1] is [simple_neighborhood g s1]:
    is there an edge connecting the two disjoint sets (Def. 7)? *)

val connecting_edges :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t ->
  (Hyperedge.t * Hyperedge.orientation) list
(** All edges connecting the pair, with orientation relative to
    [(s1, s2)] — what EmitCsgCmp conjoins into the join predicate. *)

val gather_pair_edges :
  t -> Nodeset.Node_set.t -> Nodeset.Node_set.t -> Nodeset.Node_set.t ->
  Nodeset.Node_set.t -> int
(** [gather_pair_edges g s1 nb1 s2 nb2], where [nb1] and [nb2] are the
    {!simple_neighborhood}s of [s1] and [s2], collects into the
    scratch arena, in ascending id order, the edges a join of the
    disjoint sets [s1] and [s2] is the first to cover: those with
    [u ∪ v ∪ w ⊆ s1 ∪ s2] that meet both sides.  It scans the
    incidence lists of the side with fewer members, and of its nodes
    only those on the cut ([s1 ∩ nb2] or [s2 ∩ nb1]) or on a complex
    edge.  Returns their count; read them with {!gathered} before the
    next arena-backed call on [g]. *)

val gathered : t -> int -> int
(** [gathered g i] — id of the [i]-th edge of the last
    {!gather_pair_edges}. *)

val has_hyperedges : t -> bool
(** Any non-simple edge present? *)

val components : t -> Nodeset.Node_set.t list
(** Connected components in the weak sense (every edge glues all the
    relations it mentions); used by {!ensure_connected}. *)

val ensure_connected : t -> t
(** Section 2.1: if the graph is disconnected, add selectivity-1
    inner-join hyperedges between consecutive connected components so
    that the result is connected and describes the same query. *)

val contractible : t -> Nodeset.Node_set.t -> bool
(** Can the block be collapsed to a single node?  True iff no edge
    {e straddles} it: every edge whose cover is not fully inside the
    block has each of its two hypernodes entirely on one side of the
    block boundary.  (A straddling edge's hypernodes would overlap
    after the collapse.) *)

type contraction = {
  cgraph : t;  (** the contracted graph *)
  node_of : int array;
      (** old node → new node; every block member maps to the
          compound node *)
  edge_of : int array;
      (** new edge id → old edge id (edges fully inside the block are
          dropped; all others survive in id order) *)
}

val contract : t -> block:Nodeset.Node_set.t -> card:float -> contraction
(** Collapse [block] into one compound node — a step of iterative
    dynamic programming (the driver is [Core.Idp], whose block DP
    seeds the node's leaf with the block plan's cost).  The compound
    node takes the position of the block's minimal member in the
    surviving node order, is named after its members ([(R0*R1)]) and
    carries cardinality [card] (the block plan's output estimate) and
    the block's outward free variables.
    Edges covered by the block disappear — an exact DP over the block
    applies all of them, pending inner ones included; every other edge
    keeps its payload with hypernodes mapped through [node_of].
    @raise Invalid_argument if the block has fewer than two nodes,
    mentions an out-of-range node, or is not {!contractible}. *)

type induced = {
  sub : t;
      (** the block's relations, renumbered [0 .. k-1] in ascending
          order, and the edges whose cover lies in the block *)
  members : int array;  (** subgraph node -> node *)
  edge_ids : int array;  (** subgraph edge id -> edge id *)
}

val induced : t -> Nodeset.Node_set.t -> induced
(** [induced g block] — the sub-hypergraph of [g] induced by [block],
    on which a block DP runs with [k]-node sets instead of [g]'s
    (see [Core.Idp.solve_block]).  Renumbering keeps the nodes' order
    and the surviving edges keep theirs (ascending id), so exact DPhyp
    on [sub] takes every node-order and edge-order decision it would
    take on the block inside [g].  Each free set is restricted to the
    block: a dependency on a node outside it cannot matter to a join
    of two sets inside it.  @raise Invalid_argument if [block] is
    empty or mentions an out-of-range node. *)

val lift : induced -> Nodeset.Node_set.t -> Nodeset.Node_set.t
(** A subgraph node set in the enclosing graph's numbering. *)

val pp : Format.formatter -> t -> unit
