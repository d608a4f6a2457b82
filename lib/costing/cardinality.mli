(** Cardinality estimation for the twelve operators of Section 5.1.

    The classic independence model: an inner join of sizes [l] and [r]
    under combined predicate selectivity [sel] produces [l·r·sel]
    tuples.  The non-inner operators derive from it:

    - left outer join: every left tuple survives — [max(inner, l)];
    - full outer join: additionally every right tuple survives —
      [max(inner, l) + max(r − inner, 0)];
    - left semijoin:   [l · min(1, sel·r)] (probability a left tuple
      finds at least one partner, linearized);
    - left antijoin:   [l − semijoin], floored at 1 like the rest;
    - nestjoin:        exactly [l] (one group per left tuple).

    Dependent variants share their regular counterpart's estimate —
    dependence changes evaluation strategy, not output size.  All
    results are floored at 1.0 tuple so that C_out cost landscapes
    never collapse to all-zero. *)

val inner : float -> float -> float -> float
(** [inner l r sel]. *)

val estimate : Relalg.Operator.t -> float -> float -> float -> float
(** [estimate op l r sel] — output cardinality of [l op_sel r]. *)

val estimate_into : Relalg.Operator.t -> Candidate.t -> unit
(** [estimate_into op c] sets [c.card] to
    [estimate op c.left_card c.right_card c.sel] without boxing a
    float (see {!Candidate}). *)

val selectivity_product : (Hypergraph.Hyperedge.t * 'a) list -> float
(** Combined selectivity of a set of connecting edges (independence
    assumption: plain product). *)

val card_bucket : float -> int
(** Half-decade log bucket of a base cardinality ([0] for anything
    ≤ 1).  Catalogs whose statistics fall in the same buckets are
    close enough to share a plan-cache fingerprint; crossing a bucket
    boundary changes the fingerprint (see [Cache.Fingerprint]). *)

val sel_bucket : float -> int
(** Half-decade log bucket of a selectivity in (0, 1]: [0] for 1.0,
    increasingly negative toward 0 (e.g. 0.1 ↦ -2, 0.01 ↦ -4). *)

val q_error : est:float -> actual:float -> float option
(** The estimation-quality measure [max(est/actual, actual/est)]
    (symmetric, ≥ 1, with 1 = perfect).  NULL-safe: [None] when either
    side is zero, negative or NaN — an empty actual result has no
    finite Q-error, and reporting must say so rather than divide by
    zero. *)
