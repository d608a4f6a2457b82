module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum
module G = Hypergraph.Graph

(* The five member functions of Section 3, parameterized over the
   emission action so that plan construction and pure enumeration
   share one code path.  [emit s1 s2] must install a dpTable entry for
   s1 ∪ s2 when (s1, s2) is a csg-cmp-pair — the connectivity tests
   below are dpTable lookups, per the paper (entries exist for exactly
   the connected sets already decomposed, because subsets precede
   supersets).  A block DP (see Idp) runs the same algorithm on the
   block's induced subgraph. *)

(* Every set the ccp loop grows travels with its simple neighborhood
   (the union of its members' [G.simple_neighbors]), so a neighborhood
   adds only the neighbors of the subset just added, connectivity is
   one word test and [emit] resolves the pair from the cut.  [s1],
   [i1] and [nb1] hold the csg [emit_csg] is finding complements for
   and its entry id, so the recursion closures capture no more than
   the sets they grow.  [id] is the table's membership probe,
   partially applied once; it returns the entry id a hit hands on to
   [emit], so a pair probes the table for neither side again.  In a
   dev build on a 2-core host, calling the partial application served
   2–4% more requests per second on [bench/e2e]'s hyper_cold and
   dense_adaptive than calling the table's probe with the table at
   every test.  A singleton's id is its node: [run] seeds the leaves
   of a fresh table in ascending order.  [all] is the graph's node
   set, against which [dead] tests a recursion's sets. *)
type ctx = {
  g : G.t;
  all : Ns.t;
  id : Ns.t -> int;
  counters : Counters.t;
  emit : Ns.t -> int -> Ns.t -> Ns.t -> int -> Ns.t -> unit;
  mutable s1 : Ns.t;
  mutable i1 : int;
  mutable nb1 : Ns.t;
}

let neighborhood c s nb x =
  c.counters.Counters.neighborhood_calls <-
    c.counters.Counters.neighborhood_calls + 1;
  G.neighborhood c.g s nb x

(* N(S, X) lies in V \ (S ∪ X): its simple part is cut by S ∪ X, and
   [G.collect_candidates] keeps only hypernodes disjoint from S ∪ X.
   A recursive call on (S ∪ S', X') with S' ⊆ N ⊆ X' therefore finds
   an empty neighborhood when S ∪ X' covers every node, and returns
   without ticking or emitting a pair; [dead] is that test, one
   subset test against [c.all], and the recursions skip such calls.
   On a clique that is almost every call below an [emit_csg], since N
   takes all of V \ (S ∪ X). *)
let dead c s x' = Ns.subset c.all (Ns.union s x')

(* EnumerateCmpRec(S1, S2, X): extend the complement seed S2 (with
   simple neighborhood [nb2]) until it connects to S1; emit on every
   connected extension that has a dpTable entry, then recurse.
   (Pseudocode fix: one neighborhood, X grows by N only for the
   recursion.) *)
let rec enumerate_cmp_rec c s2 nb2 x =
  let n = neighborhood c s2 nb2 x in
  if not (Ns.is_empty n) then begin
    Se.iter_nonempty n (fun sub ->
        let s2' = Ns.union s2 sub in
        Counters.tick_pair c.counters;
        let i2 = c.id s2' in
        if i2 >= 0 && G.connects c.g c.s1 c.nb1 s2' then
          c.emit c.s1 c.i1 c.nb1 s2' i2
            (Ns.union nb2 (G.simple_neighborhood c.g sub)));
    let x' = Ns.union x n in
    if not (dead c s2 x') then
      Se.iter_nonempty n (fun sub ->
          enumerate_cmp_rec c (Ns.union s2 sub)
            (Ns.union nb2 (G.simple_neighborhood c.g sub))
            x')
  end

(* EmitCsg(S1): find all complement seeds in the neighborhood of S1,
   excluding everything at or below min(S1); seeds are processed in
   descending node order, and each EnumerateCmpRec call forbids the
   seeds that are still to come below it (B_v(N)) so each complement
   is grown from its smallest contained neighbor only. *)
let emit_csg c s1 i1 =
  c.s1 <- s1;
  c.i1 <- i1;
  c.nb1 <- G.simple_neighborhood c.g s1;
  let x = Ns.union s1 (Ns.upto (Ns.min_elt s1)) in
  let n = neighborhood c s1 c.nb1 x in
  Ns.iter_desc
    (fun v ->
      let s2 = Ns.singleton v and nb2 = G.simple_neighbors c.g v in
      Counters.tick_pair c.counters;
      if G.connects c.g s1 c.nb1 s2 then c.emit s1 c.i1 c.nb1 s2 v nb2;
      enumerate_cmp_rec c s2 nb2 (Ns.union x (Ns.inter n (Ns.upto v))))
    n

(* EnumerateCsgRec(S1, X): grow the connected subgraph S1; every
   extension with a dpTable entry (i.e. connected) is a new csg to
   find complements for.  It runs once per csg, so it computes S1's
   neighborhood afresh rather than carry it. *)
let rec enumerate_csg_rec c s1 x =
  let n = neighborhood c s1 (G.simple_neighborhood c.g s1) x in
  if not (Ns.is_empty n) then begin
    Se.iter_nonempty n (fun sub ->
        let s1' = Ns.union s1 sub in
        let i1 = c.id s1' in
        if i1 >= 0 then emit_csg c s1' i1);
    let x' = Ns.union x n in
    if not (dead c s1 x') then
      Se.iter_nonempty n (fun sub -> enumerate_csg_rec c (Ns.union s1 sub) x')
  end

(* Seed every leaf, then the descending root loop of Section 3: under
   root [v], everything DPhyp does for csgs whose minimal node is
   [v]. *)
let run ~emit ~counters ?(leaf_cost = fun _ -> 0.0) g dp =
  let id = Plans.Dp_table.id dp in
  let all = G.all_nodes g in
  let c =
    { g; all; id; counters; emit; s1 = Ns.empty; i1 = -1; nb1 = Ns.empty }
  in
  Ns.iter (fun v -> Plans.Dp_table.leaf dp v ~cost:(leaf_cost v)) all;
  Ns.iter_desc
    (fun v ->
      let s = Ns.singleton v in
      emit_csg c s v;
      enumerate_csg_rec c s (Ns.upto v))
    all

let solve_with_table ?(model = Costing.Cost_model.c_out) ?filter ?bound
    ?(counters = Counters.create ()) g =
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ?filter ?bound ~model ~counters g dp in
  run ~emit:(Emit.emit e Emit.Symmetric) ~counters g dp;
  (dp, Plans.Dp_table.find dp (G.all_nodes g))

let solve ?model ?filter ?bound ?counters g =
  snd (solve_with_table ?model ?filter ?bound ?counters g)

let solve_induced ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) ~leaf_cost (ind : G.induced) =
  let g = ind.sub in
  let dp = Plans.Dp_table.create_for ~lift:(G.lift ind) g in
  let e = Emit.make ~model ~counters g dp in
  run ~emit:(Emit.emit e Emit.Symmetric) ~counters ~leaf_cost g dp;
  (dp, Plans.Dp_table.find dp (G.all_nodes g))

let enumerate_ccps g =
  let counters = Counters.create () in
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ~model:Costing.Cost_model.c_out ~counters g dp in
  let trace = ref [] in
  let emit s1 i1 nb1 s2 i2 nb2 =
    trace := (s1, s2) :: !trace;
    Emit.emit e Emit.Symmetric s1 i1 nb1 s2 i2 nb2
  in
  run ~emit ~counters g dp;
  List.rev !trace

(* The largest star [solve] must walk in full; the rules and their
   proof are in dphyp.mli.  [sel.(i)] multiplies the selectivities of
   every edge mentioning [i], bounding from below any pair
   selectivity at a star point [i]. *)
let min_pairs g =
  let n = G.num_nodes g in
  let eligible = Array.init n (fun i -> Ns.is_empty (G.relation g i).G.free) in
  let sel = Array.make n 1.0 in
  Array.iter
    (fun (e : Hypergraph.Hyperedge.t) ->
      Ns.iter
        (fun i ->
          if e.op.Relalg.Operator.kind <> Relalg.Operator.Inner then
            eligible.(i) <- false;
          sel.(i) <- sel.(i) *. e.sel)
        (G.edge_cover g e.id))
    (G.edges g);
  let points =
    Ns.filter
      (fun i -> eligible.(i) && G.cardinality g i > 0. && sel.(i) >= 0x1p-1000)
      (G.all_nodes g)
  in
  let d = ref 0 in
  for v = 0 to n - 1 do
    if G.cardinality g v > 0. then
      d := max !d (Ns.cardinal (Ns.inter (G.simple_neighbors g v) points))
  done;
  let d = !d in
  if d = 0 then 0
  else if d - 1 >= Sys.int_size - 1 || 1 lsl (d - 1) > max_int / d then max_int
  else d lsl (d - 1)
