module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Op = Relalg.Operator

type t = { set : Ns.t; card : float; cost : float; tree : tree }

and tree = Scan of int | Join of join

and join = {
  op : Relalg.Operator.t;
  edge_ids : int list;
  sel : float;
  left : t;
  right : t;
}

let scan g i =
  { set = Ns.singleton i; card = G.cardinality g i; cost = 0.0; tree = Scan i }

let join model ~op ~edge_ids ~sel left right =
  let card = Costing.Cardinality.estimate op left.card right.card sel in
  let cost =
    left.cost +. right.cost
    +. Costing.Cost_model.op_cost model op ~left_card:left.card
         ~right_card:right.card ~out_card:card
  in
  {
    set = Ns.union left.set right.set;
    card;
    cost;
    tree = Join { op; edge_ids; sel; left; right };
  }

(* ---- join resolution ---------------------------------------------

   A plan over [s] has applied exactly the edges whose cover lies in
   [s] (doc/algorithm.mld, "applied = covered"), so the edges a join
   of [s1] and [s2] applies are the ones [G.gather_pair_edges]
   collects from the cut between them: covered by [s1 ∪ s2], meeting
   both sides.  Those that [He.orient] aligns with the cut are
   connecting; the rest are pending and conjoined as filters.

   Resolution codes: [rejected]; [0] when every connecting edge is
   inner; otherwise [2 (id + 1) + b] for the single non-inner
   connecting edge [id], [b = 1] when its [u] side lies in [s2].
   Operator codes: [2 base + d], [base = 0] for a plain join and
   [id + 1] for the operator of edge [id], [d = 1] for the dependent
   variant.  Everything here is int and set arithmetic on the graph's
   scratch arena: resolving a pair allocates nothing. *)

let rejected = -1

let resolve g s1 nb1 s2 nb2 (c : Costing.Candidate.t) =
  let n = G.gather_pair_edges g s1 nb1 s2 nb2 in
  let res = ref 0 and connecting = ref false and ok = ref true in
  let pending = ref 0 and conn_sel = ref 1.0 in
  for i = 0 to n - 1 do
    let e = G.edge g (G.gathered g i) in
    let inner = e.op.Op.kind = Op.Inner in
    match He.orient e s1 s2 with
    | Some o ->
        connecting := true;
        conn_sel := !conn_sel *. e.sel;
        if not inner then
          if !res <> 0 then ok := false
          else res := (2 * (e.id + 1)) + (match o with He.Forward -> 0 | He.Backward -> 1)
    | None -> if inner then incr pending else ok := false
  done;
  if not (!ok && !connecting) then rejected
  else begin
    (* pending selectivities fold in descending id order *)
    let pend_sel = ref 1.0 in
    if !pending > 0 then
      for i = n - 1 downto 0 do
        let e = G.edge g (G.gathered g i) in
        match He.orient e s1 s2 with
        | Some _ -> ()
        | None -> pend_sel := !pend_sel *. e.sel
      done;
    c.sel <- !conn_sel *. !pend_sel;
    !res
  end

let flip res = if res > 0 then res lxor 1 else res

let backward res = res > 0 && res land 1 = 1

let op_code g res ~left ~right =
  let base = res lsr 1 in
  let op = if base = 0 then Op.join else (G.edge g (base - 1)).op in
  if backward res && not (Op.commutative op) then rejected
  else if Ns.intersects (Ns.diff (G.free_of g left) left) right then rejected
  else if Ns.intersects (Ns.diff (G.free_of g right) right) left then
    (* Section 5.6: the right argument depends on the left one *)
    if op.Op.kind = Op.Full_outer then rejected else (2 * base) + 1
  else 2 * base

let operator g code =
  let base = code lsr 1 in
  let op = if base = 0 then Op.join else (G.edge g (base - 1)).op in
  if code land 1 = 1 then Op.to_dependent op else op

(* Connecting edges ascending, then pending edges ascending. *)
let applied g s1 nb1 s2 nb2 =
  let conn = ref [] and pend = ref [] in
  for i = G.gather_pair_edges g s1 nb1 s2 nb2 - 1 downto 0 do
    let id = G.gathered g i in
    match He.orient (G.edge g id) s1 s2 with
    | Some _ -> conn := id :: !conn
    | None -> pend := id :: !pend
  done;
  !conn @ !pend

let applied_edges g s1 s2 =
  applied g s1 (G.simple_neighborhood g s1) s2 (G.simple_neighborhood g s2)

let make_join g ~code ~card ~cost left right =
  let c = Costing.Candidate.create () in
  let nb1 = G.simple_neighborhood g left.set
  and nb2 = G.simple_neighborhood g right.set in
  ignore (resolve g left.set nb1 right.set nb2 c);
  let edge_ids = applied g left.set nb1 right.set nb2 in
  {
    set = Ns.union left.set right.set;
    card;
    cost;
    tree = Join { op = operator g code; edge_ids; sel = c.sel; left; right };
  }

(* Per-node cardinality annotations, postorder (children before
   parents) — the estimate side of EXPLAIN ANALYZE.  Keyed by the
   relation set, which is also T(subtree) of the emitted operator
   tree, so executed row counts join against these exactly. *)
let estimates p =
  let out = ref [] in
  let rec walk p =
    (match p.tree with
    | Scan _ -> ()
    | Join j ->
        walk j.left;
        walk j.right);
    out := (p.set, p.card) :: !out
  in
  walk p;
  List.rev !out

let to_optree g p =
  let rec go p =
    match p.tree with
    | Scan i ->
        let r = G.relation g i in
        Relalg.Optree.leaf ~free:r.G.free i r.G.name
    | Join j ->
        let edges = List.map (G.edge g) j.edge_ids in
        let pred =
          Relalg.Predicate.conj
            (List.filter_map
               (fun (e : He.t) ->
                 match e.pred with Relalg.Predicate.True_ -> None | p -> Some p)
               edges)
        in
        let aggs = List.concat_map (fun (e : He.t) -> e.aggs) edges in
        Relalg.Optree.op ~aggs j.op pred (go j.left) (go j.right)
  in
  go p

let rec pp ppf p =
  match p.tree with
  | Scan i -> Format.fprintf ppf "R%d" i
  | Join j ->
      Format.fprintf ppf "(%a %s %a)" pp j.left (Relalg.Operator.symbol j.op)
        pp j.right

let pp_verbose g ppf p =
  let rec go indent p =
    let pad = String.make indent ' ' in
    match p.tree with
    | Scan i ->
        Format.fprintf ppf "%sscan %s (card=%.0f)@\n" pad (G.relation g i).G.name
          p.card
    | Join j ->
        Format.fprintf ppf "%s%s (card=%.1f, cost=%.1f, edges=[%s])@\n" pad
          (Relalg.Operator.symbol j.op) p.card p.cost
          (String.concat ";" (List.map string_of_int j.edge_ids));
        go (indent + 2) j.left;
        go (indent + 2) j.right
  in
  go 0 p

let to_string p = Format.asprintf "%a" pp p
