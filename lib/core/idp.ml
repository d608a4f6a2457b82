module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* IDP-k (iterative dynamic programming, Kossmann & Stocker style,
   "IDP-M" flavor): pick a block of at most k relations, optimize it
   {e exactly} with DPhyp on the block's induced subgraph
   (Graph.induced, Dphyp.solve_induced), contract the winning sub-plan
   to one node of a coarser graph (Graph.contract, which gives it the
   block plan's cardinality), and repeat until a single plan covers
   everything; the next block DP seeds that node's leaf with the block
   plan's cost.  Each round costs at most the 3^k of exact DP on k
   relations, so total work is polynomial in n for fixed k — and with
   k >= n the first round IS exact DPhyp, so IDP degrades continuously
   from the optimum.

   Plans built on a contracted graph talk about contracted node sets
   and edge ids, so each round's winner is immediately {e flattened}
   back onto the original graph: every [Scan v] becomes the root plan
   [v] stands for and every join is rebuilt with Plan.join using the
   stored per-join selectivity and the edge-id translation accumulated
   across contractions ([state]).  Cardinalities and costs are
   reproduced exactly (same model, same selectivities, same leaf
   cardinalities), so the returned plan is a plain root-graph plan
   that Plan_check accepts and to_optree can execute.  The partitioned
   tier (Partition) contracts its clustered blocks through the same
   [state] and then runs the same [rounds].

   A block DP runs on the block's induced subgraph, whose rank order
   keeps every order-dependent decision of DPhyp; what leaves it — the
   winning plan, the entries [pick_entry] judges, the sets a
   provenance hook records — is lifted back to the current graph. *)

let default_k = 7

(* Deterministic greedy block: seed at the smallest-cardinality node,
   then repeatedly pull in the smallest-cardinality node adjacent to
   the block (ties: smallest index).  Adjacency is cover overlap —
   cheap, and any over-approximation is harmless because the block DP
   only materializes sets it actually connected. *)
let choose_block g k =
  let n = G.num_nodes g in
  let card v = G.cardinality g v in
  let seed = ref 0 in
  for v = 1 to n - 1 do
    if card v < card !seed then seed := v
  done;
  let block = ref (Ns.singleton !seed) in
  let stop = ref false in
  while (not !stop) && Ns.cardinal !block < k do
    let nb =
      Array.fold_left
        (fun acc (e : He.t) ->
          let cover = He.covers e in
          if Ns.intersects cover !block then Ns.union cover acc else acc)
        Ns.empty (G.edges g)
    in
    let nb = Ns.diff nb !block in
    match
      Ns.fold
        (fun v best ->
          match best with
          | Some b when card b <= card v -> best
          | _ -> Some v)
        nb None
    with
    | None -> stop := true
    | Some v -> block := Ns.add v !block
  done;
  !block

(* A block's DP ran on its induced subgraph ([ind.sub]); [plan] is
   its winner in the current graph's node and edge ids. *)
type block = {
  ind : G.induced;
  dp : Plans.Dp_table.t;
  plan : Plans.Plan.t option;
}

(* An induced-subgraph plan in the current graph's node and edge ids;
   cardinalities, costs, operators and selectivities carry over. *)
let lift_plan (ind : G.induced) p =
  let rec go (p : Plans.Plan.t) =
    let set = G.lift ind p.set in
    match p.tree with
    | Plans.Plan.Scan v ->
        { p with set; tree = Plans.Plan.Scan ind.members.(v) }
    | Plans.Plan.Join j ->
        let edge_ids = List.map (fun id -> ind.edge_ids.(id)) j.edge_ids in
        let left = go j.left and right = go j.right in
        { p with set; tree = Plans.Plan.Join { j with edge_ids; left; right } }
  in
  go p

(* Best materialization candidate in a block DP table: the largest
   contractible entry, cheapest first, node-set order as the final
   tie-break so the choice never depends on table iteration order.
   Entries are judged as the current graph's node sets. *)
let pick_entry g (b : block) =
  let better (ca, sa) (cb, sb) = ca < cb || (ca = cb && Ns.compare sa sb < 0) in
  let rec at_size s =
    if s < 2 then None
    else
      let best =
        List.fold_left
          (fun acc set ->
            let cur = G.lift b.ind set in
            if G.contractible g cur then
              let e = (Plans.Dp_table.cost b.dp set, cur) in
              match acc with
              | Some (best, _) when better best e -> acc
              | _ -> Some (e, set)
            else acc)
          None
          (Plans.Dp_table.sets_of_size b.dp s)
      in
      match best with
      | None -> at_size (s - 1)
      | Some (_, set) ->
          Some (lift_plan b.ind (Plans.Dp_table.best b.dp set))
  in
  at_size (G.num_nodes b.ind.sub)

(* [emap]: current edge id -> root edge id; [base.(v)]: the root plan
   current node [v] stands for; [cur_of]: root node -> current node. *)
type state = {
  graph : G.t;
  emap : int array;
  base : Plans.Plan.t array;
  cur_of : int array;
}

let start g =
  let n = G.num_nodes g in
  {
    graph = g;
    emap = Array.init (G.num_edges g) Fun.id;
    base = Array.init n (Plans.Plan.scan g);
    cur_of = Array.init n Fun.id;
  }

let flatten ~model st p =
  let rec go (p : Plans.Plan.t) =
    match p.tree with
    | Plans.Plan.Scan v -> st.base.(v)
    | Plans.Plan.Join j ->
        Plans.Plan.join model ~op:j.op
          ~edge_ids:(List.map (fun id -> st.emap.(id)) j.edge_ids)
          ~sel:j.sel (go j.left) (go j.right)
  in
  go p

let contract ~model st (bp : Plans.Plan.t) =
  let broot = flatten ~model st bp in
  let { G.cgraph; node_of; edge_of } =
    G.contract st.graph ~block:bp.set ~card:broot.card
  in
  let base = Array.make (G.num_nodes cgraph) broot in
  Array.iteri
    (fun v p -> if not (Ns.mem v bp.set) then base.(node_of.(v)) <- p)
    st.base;
  {
    graph = cgraph;
    emap = Array.map (fun id -> st.emap.(id)) edge_of;
    base;
    cur_of = Array.map (fun v -> node_of.(v)) st.cur_of;
  }

let solve_block ?obs ~model ~counters st ~label ~span ~attrs subset k =
  let label =
    match Plans.Dp_table.current_context () with
    | "" -> label
    | outer -> outer ^ "/" ^ label
  in
  Plans.Dp_table.with_context label (fun () ->
      Obs.Span.with_opt obs span ~attrs (fun sp ->
          let ind = G.induced st.graph subset in
          let leaf_cost v = st.base.(ind.members.(v)).cost in
          let dp, plan = Dphyp.solve_induced ~model ~leaf_cost ~counters ind in
          k sp { ind; dp; plan = Option.map (lift_plan ind) plan }))

(* [kr] is the effective block size for this round.  It starts at [k]
   and widens only when a round gets stuck — on hypergraphs a small
   block may contain no contractible connected subset (every candidate
   is straddled by a complex edge).  Widening is capped by [n <= kr],
   where the round is plain exact DP and always decides. *)
let rounds ?obs ~model ~counters ~k st =
  let rec round no st kr =
    let n = G.num_nodes st.graph in
    let final = n <= kr in
    let block =
      if final then G.all_nodes st.graph else choose_block st.graph kr
    in
    match
      solve_block ?obs ~model ~counters st
        ~label:(Printf.sprintf "idp:round:%d" no)
        ~span:"idp-round"
        ~attrs:
          [
            ("round", Obs.Span.Int no);
            ("nodes", Obs.Span.Int n);
            ("k", Obs.Span.Int kr);
          ]
        block
        (fun sp b ->
          if final then begin
            Obs.Span.set_opt sp "final" (Obs.Span.Bool true);
            `Done (Option.map (flatten ~model st) b.plan)
          end
          else
            match pick_entry st.graph b with
            | None ->
                Obs.Span.set_opt sp "widened" (Obs.Span.Bool true);
                `Widen
            | Some bp -> `Next (contract ~model st bp))
    with
    | `Done plan -> plan
    | `Widen -> round (no + 1) st (kr + 1)
    | `Next st -> round (no + 1) st k
  in
  round 1 st k

let solve ?obs ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) ?(k = default_k) g =
  if k < 2 then invalid_arg "Idp.solve: k must be at least 2";
  rounds ?obs ~model ~counters ~k (start g)
