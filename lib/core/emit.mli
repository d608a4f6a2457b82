(** EmitCsgCmp (Section 3.5): turn a csg-cmp-pair into DP-table
    candidates.

    Shared by every enumeration strategy in this library.  Given a
    pair of disjoint connected sets with table entries, {!emit}
    resolves the join ({!Plans.Plan.resolve}: connecting and pending
    edges, selectivity, operator recovery per Section 5.4), then
    prices each valid argument order — switched to the dependent
    operator when [FT(P2) ∩ S1 ≠ ∅] (Section 5.6) — and offers it to
    the DP table.

    Emission is cost-first: the candidate is a set of floats in a
    {!Costing.Candidate.t}, and one that loses to the incumbent
    allocates nothing.  Plan trees are built once, after enumeration
    ({!Plans.Dp_table.find}).

    Commutativity handling follows Section 2.2: the symmetric
    enumerators produce each pair once, so for commutative operators
    {!emit} considers both argument orders.  Under a symmetric cost
    model ([symmetric] in {!Costing.Cost_model.t}: C_out) it prices a
    plain inner join (operator code 0) in one order only: the swap is
    the same operator at the same cost and cardinality, which the
    table's strict [<] would reject.  {!candidates} still prices every
    valid order. *)

type filter =
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  (Hypergraph.Hyperedge.t * Hypergraph.Hyperedge.orientation) list ->
  bool
(** Extra validity test applied before pricing — CD-C's conflict rules
    and the generate-and-test baseline of Section 5.8 plug in here.
    Receives the pair ordered as given to {!emit} and its connecting
    edges. *)

type direction =
  | Symmetric
      (** for DPhyp, DPccp: the pair is unordered; both argument
          orders are tried for commutative operators (one for a plain
          inner join under a symmetric model), and the operator's own
          orientation (which side is the hyperedge's [u]) decides the
          order for non-commutative ones *)
  | Directed
      (** for DPsize, DPsub: only the first set goes on the left; the
          symmetric candidate arises when the loop visits the swapped
          pair *)

type t
(** Emission context: graph, cost model, DP table, counters, filter,
    bound. *)

val make :
  ?filter:filter ->
  ?bound:float ->
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Dp_table.t ->
  t
(** The table supplies both sides' entries, and each priced candidate
    is offered to the same table ({!Plans.Dp_table.offer}) when its
    cost is at most [bound] (default [infinity]), a known upper bound
    on the optimal plan cost — e.g. GOO's plan cost × (1 + 1e-9),
    which the adaptive ladder passes on dense simple graphs.
    Candidates costing more never enter the table, which in turn
    prunes every enumeration subtree they would have seeded.  Sound
    whenever the cost model is additive with non-negative join costs: each subplan of an optimal plan costs at
    most the optimum, so the surviving table (and the final plan) is
    identical to the unbounded run's. *)

val emit :
  t ->
  direction ->
  Nodeset.Node_set.t ->
  int ->
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  int ->
  Nodeset.Node_set.t ->
  unit
(** [emit t dir s1 i1 nb1 s2 i2 nb2] emits one pair, where [i1] and
    [i2] are the sides' entry ids (the caller's
    {!Plans.Dp_table.id} probes) and [nb1] and [nb2] their
    {!Hypergraph.Graph.simple_neighborhood}s (DPhyp carries them;
    other callers compute them).  Resolution gathers the pair's edges
    from the incidence lists of the cut ([s1 ∩ nb2] or [s2 ∩ nb1], on
    the side with fewer members) and of that side's nodes on complex
    edges, so on a graph of simple edges its cost scales with the
    cut, not with the sides.  The joined set is looked up once, and
    every priced order offers into that slot.  No-op if a side has no
    table entry (id [-1]), no edge connects the pair, or the filter
    rejects it. *)

val candidates :
  model:Costing.Cost_model.t ->
  counters:Counters.t ->
  Hypergraph.Graph.t ->
  Plans.Plan.t ->
  Plans.Plan.t ->
  Plans.Plan.t list
(** Every valid plan for the (unordered) pair, through the same
    resolution and argument-order rules as a {!Symmetric} {!emit}.
    Empty when no edge connects the pair or every order is invalid.
    Used by the algorithms that keep their own best-plan state (GOO,
    top-down search) instead of a DP table. *)
