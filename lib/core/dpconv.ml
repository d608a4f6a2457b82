module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* DPconv (Stoian, arXiv 2409.08013): join ordering by fast subset
   convolution instead of csg-cmp-pair enumeration.

   The whole module works on the subset lattice of {0..n-1} as dense
   ints: a subset is its own bit pattern in [0, 2^n), arrays of size
   2^n carry one value per subset, and the zeta / Möbius transforms
   walk them bit by bit.  Every graph it accepts has at most
   max_relations nodes, so an index is a single-word Node_set as it
   stands (Node_set.unsafe_of_int).  Every array and byte access is
   bounds-checked: an index bug raises instead of writing past a
   block.

   C_max ("minimize the largest intermediate") decomposes over the
   lattice: "can S be assembled with every intermediate cardinality
   ≤ τ?" is a monotone boolean recurrence whose layer k (subsets of
   cardinality k) is one ranked subset convolution of the layers
   below.  Binary search over the distinct intermediate cardinalities
   then pins the exact optimum in O(log 2^n) feasibility passes of
   O(2^n · n²) each — Õ(2^n) total, against DPhyp's Θ(3^n) pairs on a
   clique.

   C_out (sum of intermediates) does not decompose like that; its
   exact optimum is DPhyp's, which Cout_bound runs with the C_max
   witness's cost as the pruning bound. *)

type objective = Cmax | Cout_bound

(* The transforms keep one int array per rank: Θ(n·2^n) words, ~40 MB
   at 18 relations — and every feasibility pass touches all of it. *)
let max_relations = 18

let all_inner g =
  Array.for_all
    (fun (e : He.t) -> e.He.op.Relalg.Operator.kind = Relalg.Operator.Inner)
    (G.edges g)

let no_free g =
  let ok = ref true in
  for v = 0 to G.num_nodes g - 1 do
    if not (Ns.is_empty (G.relation g v).G.free) then ok := false
  done;
  !ok

(* Simple inner graphs: on those, a partition of a connected set
   into two connected halves always has a crossing simple edge, i.e.
   it IS a csg-cmp-pair — the fact that lets the convolution count
   partitions instead of enumerating pairs.  A complex edge's
   hypernode can straddle a cut without connecting it (Def. 7), so the
   convolution would accept partitions DPhyp rejects.  The same fact
   makes every merge GOO takes on a connected such graph a pair DPhyp
   prices ([Adaptive] bounds its dense rung with GOO's cost). *)
let simple_inner g = (not (G.has_hyperedges g)) && all_inner g && no_free g

let supported g =
  let n = G.num_nodes g in
  n >= 1 && n <= max_relations && simple_inner g

let require_supported g =
  if not (supported g) then
    invalid_arg
      (Printf.sprintf
         "Dpconv: unsupported graph (needs 1..%d relations, simple edges, \
          inner operators, no free variables); use dphyp"
         max_relations)

(* ---------- transforms ---------- *)

(* In-place subset-sum (zeta: [a.(s)] becomes [Σ_{t ⊆ s} a.(t)] for
   every [s] in [0, 2^bits)) and its inverse (Möbius) over a flat
   lattice array of length [2^bits] — the two transforms the ranked
   C_max feasibility layers are built from. *)

let zeta_in_place ~bits a =
  let size = 1 lsl bits in
  for i = 0 to bits - 1 do
    let bit = 1 lsl i in
    for s = 0 to size - 1 do
      if s land bit <> 0 then a.(s) <- a.(s) + a.(s lxor bit)
    done
  done

let mobius_in_place ~bits a =
  let size = 1 lsl bits in
  for i = 0 to bits - 1 do
    let bit = 1 lsl i in
    for s = 0 to size - 1 do
      if s land bit <> 0 then a.(s) <- a.(s) - a.(s lxor bit)
    done
  done

let popcount_table size =
  let pop = Bytes.create size in
  Bytes.set pop 0 '\000';
  for s = 1 to size - 1 do
    Bytes.set pop s
      (Char.chr (Char.code (Bytes.get pop (s lsr 1)) + (s land 1)))
  done;
  fun s -> Char.code (Bytes.get pop s)

(* ---------- solver ---------- *)

type outcome = {
  plan : Plans.Plan.t option;
  cmax : float;
  bound : float;
  dp : Plans.Dp_table.t;
}

let ctz x =
  let rec go i v = if v land 1 = 1 then i else go (i + 1) (v lsr 1) in
  go 0 x

let cost_of = function Some p -> p.Plans.Plan.cost | None -> nan

(* The exact bottleneck optimum and a witness plan achieving it. *)
let solve_cmax ~model ~counters g =
  require_supported g;
  let n = G.num_nodes g in
  let dp = Plans.Dp_table.create_for g in
  let emit = Emit.make ~model ~counters g dp in
  for v = 0 to n - 1 do
    Plans.Dp_table.leaf dp v ~cost:0.0
  done;
  if n = 1 then begin
    let plan = Plans.Dp_table.find dp (G.all_nodes g) in
    { plan; cmax = 0.; bound = cost_of plan; dp }
  end
  else begin
    let size = 1 lsl n in
    let full = size - 1 in
    let popc = popcount_table size in
    let nb = Array.init n (fun v -> Ns.to_int (G.simple_neighbors g v)) in
    (* Per-node simple edges to higher-numbered partners.  cards below
       strips lowest bits first, so an edge {a,b} (a < b) multiplies in
       exactly once: at the set whose lowest member is a and which
       contains b. *)
    let edge_sels = Array.make n [] in
    Array.iter
      (fun (e : He.t) ->
        let a = Ns.min_elt e.He.u and b = Ns.min_elt e.He.v in
        let lo, hi = if a < b then (a, b) else (b, a) in
        edge_sels.(lo) <- (1 lsl hi, e.He.sel) :: edge_sels.(lo))
      (G.edges g);
    let edge_sels = Array.map Array.of_list edge_sels in
    (* cards.(s): estimated cardinality of the join over s with every
       internal predicate applied exactly once — by the pending rule
       (Plans.Plan.resolve) this is what any valid plan over s produces,
       independent of its shape. *)
    let cards = Array.make size 1.0 in
    for v = 0 to n - 1 do
      cards.(1 lsl v) <- G.cardinality g v
    done;
    for s = 3 to size - 1 do
      if popc s >= 2 then begin
        let low = s land (-s) in
        let rest = s lxor low in
        let c = ref (cards.(rest) *. cards.(low)) in
        Array.iter
          (fun (bit, sel) -> if rest land bit <> 0 then c := !c *. sel)
          edge_sels.(ctz low);
        cards.(s) <- !c
      end
    done;
    (* Connectivity mask from the incidence indexes: bitmask BFS from
       the lowest member.  Disconnected subsets never enter a layer,
       so they can never become champions. *)
    let conn = Bytes.make size '\000' in
    for v = 0 to n - 1 do
      Bytes.set conn (1 lsl v) '\001'
    done;
    for s = 3 to size - 1 do
      if popc s >= 2 then begin
        let start = s land (-s) in
        let reach = ref start and frontier = ref start in
        while !frontier <> 0 do
          let nxt = ref 0 in
          let f = ref !frontier in
          while !f <> 0 do
            let b = !f land (- !f) in
            nxt := !nxt lor nb.(ctz b);
            f := !f lxor b
          done;
          frontier := !nxt land s land lnot !reach;
          reach := !reach lor !frontier
        done;
        if !reach = s then Bytes.set conn s '\001'
      end
    done;
    let connected s = Bytes.get conn s <> '\000' in
    if not (connected full) then { plan = None; cmax = nan; bound = nan; dp }
    else begin
      (* Candidate thresholds: every distinct intermediate cardinality
         of a connected set, at least card(V) (the root join is always
         an intermediate).  τ* is one of them. *)
      let cand = ref [] in
      for s = 0 to size - 1 do
        if popc s >= 2 && connected s && cards.(s) >= cards.(full) then
          cand := cards.(s) :: !cand
      done;
      let cand = Array.of_list (List.sort_uniq compare !cand) in
      (* One feasibility pass: layer k of the achievability indicator
         f is the rank-k slice of the ranked subset convolution of the
         layers below — c(S) counts ordered partitions of S into two
         achievable halves — masked by connectivity and cards ≤ τ.
         zf.(r) caches the zeta transform of each finished layer.  The
         Möbius inversion is not optional even at the top rank:
         ẑf_i · ẑf_j at S also counts overlapping pairs with
         |T1| + |T2| = |S| but T1 ∪ T2 ⊊ S, and only Möbius cancels
         them. *)
      let f = Bytes.create size in
      let zf = Array.make n [||] in
      for r = 1 to n - 1 do
        zf.(r) <- Array.make size 0
      done;
      let cbuf = Array.make size 0 in
      let feasible_at tau =
        Bytes.fill f 0 size '\000';
        let z1 = zf.(1) in
        Array.fill z1 0 size 0;
        for v = 0 to n - 1 do
          Bytes.set f (1 lsl v) '\001';
          z1.(1 lsl v) <- 1
        done;
        zeta_in_place ~bits:n z1;
        for k = 2 to n do
          Array.fill cbuf 0 size 0;
          for i = 1 to k - 1 do
            let a = zf.(i) and b = zf.(k - i) in
            for s = 0 to size - 1 do
              cbuf.(s) <- cbuf.(s) + (a.(s) * b.(s))
            done
          done;
          mobius_in_place ~bits:n cbuf;
          let zk = if k < n then zf.(k) else [||] in
          if k < n then Array.fill zk 0 size 0;
          for s = 0 to size - 1 do
            if popc s = k then
              if cbuf.(s) > 0 && connected s && cards.(s) <= tau then begin
                Bytes.set f s '\001';
                if k < n then zk.(s) <- 1
              end
          done;
          if k < n then zeta_in_place ~bits:n zk
        done;
        Bytes.get f full <> '\000'
      in
      (* Feasibility is monotone in τ and the largest candidate always
         works, so binary search finds the exact optimum. *)
      let lo = ref 0 and hi = ref (Array.length cand - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if feasible_at cand.(mid) then hi := mid else lo := mid + 1
      done;
      let tau = cand.(!lo) in
      ignore (feasible_at tau : bool);
      let ok s = Bytes.get f s <> '\000' in
      (* First achievable split of s, lowest-member side canonical;
         each candidate examined is one considered pair.  Guaranteed
         to exist for every achievable set (its layer counted > 0
         ordered partitions). *)
      let first_split s =
        let low = s land (-s) in
        let found = ref 0 in
        (try
           let t = ref low in
           while !t <> 0 do
             if !t land low <> 0 && !t <> s then begin
               Counters.tick_pair counters;
               if ok !t && ok (s lxor !t) then begin
                 found := !t;
                 raise Exit
               end
             end;
             t := (!t - s) land s
           done
         with Exit -> ());
        !found
      in
      (* Only the ~2(n-1) sets on the witness tree need splits; any
         achievable split keeps every intermediate ≤ τ*.  Each chosen
         split is emitted bottom-up through the canonical emitter, so
         costs come from the session model and the DP table carries a
         real plan per subset. *)
      let rec build s =
        if popc s >= 2 then begin
          let t = first_split s in
          build t;
          build (s lxor t);
          let s1 = Ns.unsafe_of_int t and s2 = Ns.unsafe_of_int (s lxor t) in
          Emit.emit emit Emit.Symmetric s1 (Plans.Dp_table.id dp s1)
            (G.simple_neighborhood g s1) s2 (Plans.Dp_table.id dp s2)
            (G.simple_neighborhood g s2)
        end
      in
      build full;
      let plan = Plans.Dp_table.find dp (G.all_nodes g) in
      { plan; cmax = tau; bound = cost_of plan; dp }
    end
  end

(* On a simple inner graph DPhyp prices every split of a connected
   set into connected halves, the witness's among them, so the
   witness's cost bounds DPhyp's optimum and the bounded run returns
   the unbounded run's plan. *)
let solve ?(model = Costing.Cost_model.c_out) ?(objective = Cmax)
    ?(counters = Counters.create ()) g =
  let o = solve_cmax ~model ~counters g in
  match (objective, o.plan) with
  | Cmax, _ | Cout_bound, None -> o
  | Cout_bound, Some witness ->
      let dp, plan =
        Dphyp.solve_with_table ~model ~counters
          ~bound:(witness.Plans.Plan.cost *. (1. +. 1e-9))
          g
      in
      { o with plan; bound = cost_of plan; dp }
