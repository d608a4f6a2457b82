(** From conflict analysis to optimizer input (Sections 5.7 / 5.8).

    Two constructions over an analyzed operator tree:

    - {!hypergraph} — one hyperedge per operator with
      [r = TES ∩ T(right)], [l = TES \ r].  The restrictive edges
      prune the search space {e before} enumeration; DPhyp runs
      unchanged.  This is the paper's preferred formulation.
    - {!ses_graph} — one edge per operator from the SES split only
      (for simple predicates these are ordinary binary edges), plus a
      validity {e filter} that re-checks the TES conditions per
      emitted pair: [TES ⊆ S1 ∪ S2] with [l] and [r] on opposite
      sides.  This is the generate-and-test baseline of Section 5.8,
      which "generates many plans which have to be discarded".

    Both attach the originating operator to each edge (Section 5.4) so
    EmitCsgCmp can rebuild plans, and both propagate leaf
    free-variable sets so the dependent-operator switch of Section 5.6
    applies. *)

type filter =
  Nodeset.Node_set.t ->
  Nodeset.Node_set.t ->
  (Hypergraph.Hyperedge.t * Hypergraph.Hyperedge.orientation) list ->
  bool
(** Structurally identical to [Core.Emit.filter]. *)

val hypergraph :
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  Analysis.t ->
  Hypergraph.Graph.t
(** TES-derived restrictive hypergraph.  [cards] maps relation index
    to cardinality (default 1000), [sels] maps operator index to
    predicate selectivity (default 0.1). *)

val ses_graph :
  ?cards:(int -> float) ->
  ?sels:(int -> float) ->
  Analysis.t ->
  Hypergraph.Graph.t * filter
(** SES-derived graph plus TES validity filter. *)
