(** Cost models for plan comparison.

    The paper hides cost computation behind an abstract [cost]
    function (Section 3.5); any monotone model works for measuring
    {e optimization time}, which is what the evaluation reports.  We
    provide the two standard choices:

    - {!c_out} — the textbook C_out model: the cost of a plan is the
      sum of the cardinalities of all intermediate results.  This is
      the model used for all paper-reproduction benchmarks because it
      is the cheapest to evaluate (one float add per EmitCsgCmp).
    - {!c_mm} — a main-memory model: each join costs the cheaper of a
      nested-loop evaluation [l·r] and a hash-based evaluation
      [c_build·r + c_probe·l + out]; non-inner operators always pay
      the hash price (they need the full partner set per tuple).

    {!op_cost} prices a {e single} operator application; {!price}
    prices a whole candidate join, adding both operands' costs. *)

type formula =
  | Cout  (** sum of intermediate result cardinalities *)
  | Cmm  (** main-memory nested-loop / hash join model *)

type t = private {
  name : string;
  formula : formula;
  symmetric : bool;
      (** Whether the formula prices a plain inner join the same in
          both argument orders, bit for bit: {!price} of [l ⋈ r] and
          of [r ⋈ l] give equal [card] and [cost].  True of {!c_out},
          whose card [l·r·sel] and cost [lc + rc + card] use only
          commuting float operations; false of {!c_mm}, whose hash
          join builds on the right.  A property of the formula, not a
          setting: the DP core prices such a join in one order when it
          holds. *)
}
(** A cost model: a closed set of formulas, so pricing is a direct
    match rather than a call through a closure. *)

val c_out : t

val c_mm : t

val op_cost :
  t ->
  Relalg.Operator.t ->
  left_card:float ->
  right_card:float ->
  out_card:float ->
  float
(** Cost of applying one operator, excluding subplan costs. *)

val price : t -> Relalg.Operator.t -> Candidate.t -> unit
(** [price t op c] prices the candidate [left op right] described by
    [c]: sets [c.card] ({!Cardinality.estimate}) and [c.cost] to
    [c.left_cost + c.right_cost + op_cost].  The same float operations
    in the same order as a plan built with [Plans.Plan.join], so the
    two agree bit for bit.  Allocates nothing. *)

val by_name : string -> t option
(** ["cout"] or ["cmm"], for CLI flag parsing. *)
