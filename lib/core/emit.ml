module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Plan = Plans.Plan
module Dp = Plans.Dp_table

type filter = Ns.t -> Ns.t -> (He.t * He.orientation) list -> bool

type direction = Symmetric | Directed

(* Receives every priced candidate: the candidate (cost and cardinality
   filled in), the joined set's entry id ([-1]: none yet), the joined
   set, its left side and the operator code, in the contract order —
   first the edge-dictated argument order, then the commutative swap —
   and returns the set's entry id after it.  [make] offers it to the
   table, [candidates] builds a plan from it. *)
type sink =
  Costing.Candidate.t -> int -> Ns.t -> left:Ns.t -> code:int -> int

(* What pricing a candidate needs; GOO and top-down search use it
   without a DP table. *)
type pricer = {
  g : G.t;
  model : Costing.Cost_model.t;
  counters : Counters.t;
  cand : Costing.Candidate.t;
  sink : sink;
}

type t = { pr : pricer; dp : Dp.t; filter : filter option }

(* The table's sink.  [bound] is an upper bound on the cost of any
   useful plan: candidates above it never enter the table, which also
   prunes the enumeration subtrees they would have seeded.  Safe
   whenever costs are additive and non-negative (every subplan of an
   optimal plan then costs at most the optimum): the surviving table
   is identical to the unbounded one.  [infinity] = off. *)
let offer_within dp bound (c : Costing.Candidate.t) i s ~left ~code =
  if c.cost <= bound then Dp.offer dp c i s ~left ~code else i

let make ?filter ?(bound = infinity) ~model ~counters g dp =
  let cand = Costing.Candidate.create () in
  let sink = offer_within dp bound in
  { pr = { g; model; counters; cand; sink }; dp; filter }

(* Exchange the operands of the candidate: the pair's sides are loaded
   as (s1, s2), and the swapped argument order prices (s2, s1). *)
let swap_sides (c : Costing.Candidate.t) =
  let card = c.left_card and cost = c.left_cost in
  c.left_card <- c.right_card;
  c.left_cost <- c.right_cost;
  c.right_card <- card;
  c.right_cost <- cost

let price t i s ~left ~code =
  t.counters.Counters.cost_calls <- t.counters.Counters.cost_calls + 1;
  Costing.Cost_model.price t.model (Plan.operator t.g code) t.cand;
  t.sink t.cand i s ~left ~code

(* The two argument orders of a pair joining into [s], whose entry id
   is [i]: each returns the id after its offer ([i] when its operator
   code is rejected). *)
let s1_left t res i s s1 s2 =
  let code = Plan.op_code t.g res ~left:s1 ~right:s2 in
  if code = Plan.rejected then i else price t i s ~left:s1 ~code

let s2_left t res i s s1 s2 =
  let code = Plan.op_code t.g (Plan.flip res) ~left:s2 ~right:s1 in
  if code = Plan.rejected then i
  else begin
    swap_sides t.cand;
    let i = price t i s ~left:s2 ~code in
    swap_sides t.cand;
    i
  end

(* Every valid argument order of a resolved pair whose operands sit
   in [t.cand] as (s1, s2).  Order is part of the contract: first the
   edge-dictated order (s1 on the left unless the pair's non-inner
   edge points the other way), then the commutative swap.  Directed
   emission builds only s1 on the left, exactly like Figure 1's
   [dpTable[S1] B dpTable[S2]].  With [once], a pair whose s1-left
   order is the plain join (code 0: no non-inner edge, neither side
   depends on the other) skips the swap: it is the same operator, and
   a symmetric model prices it to the same bits, so the table's
   strict [<] would reject it. *)
let orders t ~once dir res i s s1 s2 =
  match dir with
  | Directed -> ignore (s1_left t res i s s1 s2)
  | Symmetric ->
      if Plan.backward res then
        ignore (s1_left t res (s2_left t res i s s1 s2) s s1 s2)
      else begin
        let code = Plan.op_code t.g res ~left:s1 ~right:s2 in
        let i =
          if code = Plan.rejected then i else price t i s ~left:s1 ~code
        in
        if not (once && code = 0) then ignore (s2_left t res i s s1 s2)
      end

let passes_filter t s1 s2 =
  match t.filter with
  | None -> true
  | Some f ->
      let c = t.pr.counters in
      f s1 s2 (G.connecting_edges t.pr.g s1 s2)
      || (c.Counters.filter_rejected <- c.Counters.filter_rejected + 1;
          false)

(* One table probe per pair: the sides' ids come from the caller's
   membership probes, and the joined set is looked up once for both
   argument orders. *)
let emit t dir s1 i1 nb1 s2 i2 nb2 =
  if i1 >= 0 && i2 >= 0 then begin
    let pr = t.pr in
    let res = Plan.resolve pr.g s1 nb1 s2 nb2 pr.cand in
    if res <> Plan.rejected && passes_filter t s1 s2 then begin
      pr.counters.Counters.ccp_emitted <- pr.counters.Counters.ccp_emitted + 1;
      Dp.load t.dp pr.cand i1 i2;
      let s = Ns.union s1 s2 in
      orders pr ~once:pr.model.Costing.Cost_model.symmetric dir res
        (Dp.id t.dp s) s s1 s2
    end
  end

let candidates ~model ~counters g (p1 : Plan.t) (p2 : Plan.t) =
  let out = ref [] in
  let sink (c : Costing.Candidate.t) i _s ~left ~code =
    let l, r = if Ns.equal left p1.set then (p1, p2) else (p2, p1) in
    out := Plan.make_join g ~code ~card:c.card ~cost:c.cost l r :: !out;
    i
  in
  let c = Costing.Candidate.create () in
  let pr = { g; model; counters; cand = c; sink } in
  let res =
    Plan.resolve g p1.set (G.simple_neighborhood g p1.set) p2.set
      (G.simple_neighborhood g p2.set) c
  in
  if res <> Plan.rejected then begin
    c.left_card <- p1.card;
    c.left_cost <- p1.cost;
    c.right_card <- p2.card;
    c.right_cost <- p2.cost;
    orders pr ~once:false Symmetric res (-1) (Ns.union p1.set p2.set) p1.set
      p2.set
  end;
  List.rev !out
