(** DPconv: bottleneck join ordering by fast subset convolution
    (Stoian, arXiv 2409.08013).

    DPhyp enumerates csg-cmp-pairs — Θ(3^n) of them on a clique — and
    pays for each one.  For the {e bottleneck} objective C_max
    (minimize the largest intermediate result) the DP

      [dp(S) = min over partitions S = S1 ⊎ S2 of
                 max(|S|_est, dp(S1), dp(S2))]

    can instead be answered with boolean subset convolutions: "is
    C_max ≤ τ achievable for S?" is a ranked zeta / Möbius transform
    pipeline over the subset lattice costing Õ(2^n) per threshold, and
    a binary search over the O(2^n) distinct intermediate
    cardinalities pins the exact optimum — Õ(2^n) total instead of
    Θ(3^n).  A subset of the [n] relations is its own bit pattern, a
    dense array index below 2{^n}; a connectivity mask computed from
    the graph's incidence indexes keeps disconnected subsets out of
    every layer, so no disconnected set can ever become a champion.

    DPconv answers C_max only.  The sum objective C_out does not
    decompose over a boolean lattice; its exact optimum is DPhyp's.

    Scope: simple inner-join graphs only (no hyperedges, no non-inner
    operators, no dependent free variables) — on those, every
    partition of a connected set into two connected halves is a valid
    csg-cmp-pair, which is the algebraic fact the convolution relies
    on; with complex edges the convolution would accept partitions
    DPhyp rejects.  Direct calls on an unsupported graph raise
    [Invalid_argument], mirroring [Dpccp]. *)

type objective =
  | Cmax  (** exact bottleneck optimum, plus a witness plan *)
  | Cout_bound
      (** the C_max search, then DPhyp bounded by the witness's cost:
          the exact optimum of the cost model.  Kept only as the
          benchmark oracle's reference for [dense_adaptive]; it goes,
          with [Adaptive.Conv], at the next edit of [bench/e2e]. *)

val max_relations : int
(** Largest graph the transforms accept (18): the working set is
    Θ(n·2^n) words — about 40 MB at the cap — and every layer touches
    all of it. *)

val simple_inner : Hypergraph.Graph.t -> bool
(** Simple edges only, all operators inner, no free variables: the
    class on which every split of a connected set into two connected
    halves is a csg-cmp-pair.  So GOO never takes its cross-product
    fallback on a connected such graph, and DPhyp prices every merge
    GOO makes; [Adaptive] bounds its dense exact rung on that. *)

val supported : Hypergraph.Graph.t -> bool
(** Whether {!solve} accepts the graph: 1 to {!max_relations}
    relations and {!simple_inner}. *)

type outcome = {
  plan : Plans.Plan.t option;
      (** witness plan (built through [Emit] under the session model);
          for {!Cout_bound}, DPhyp's optimal plan; [None] iff the graph
          is disconnected *)
  cmax : float;
      (** the exact optimal C_max — the smallest achievable largest
          intermediate cardinality ([nan] when no plan exists, [0.] on
          a single relation) *)
  bound : float;
      (** cost of [plan] under the cost model: for {!Cout_bound} its
          optimum ([nan] when no plan exists) *)
  dp : Plans.Dp_table.t;
      (** the table [plan] came from: one entry per subset on the
          witness plan's partition tree, or DPhyp's table for
          {!Cout_bound} (provenance hooks observe it like any other DP
          table) *)
}

val solve :
  ?model:Costing.Cost_model.t ->
  ?objective:objective ->
  ?counters:Counters.t ->
  Hypergraph.Graph.t ->
  outcome
(** Run the convolution DP (default objective {!Cmax}, default model
    [C_out]).  Charges [counters] one pair per candidate split
    examined while the witness is rebuilt (the transforms themselves
    are bulk work and are not pair-metered), so a budget still bounds
    the adversarial part of the run; {!Cout_bound}'s DPhyp run charges
    the same counters.
    @raise Invalid_argument if the graph is not {!supported}.
    @raise Counters.Budget_exhausted like every other strategy. *)
