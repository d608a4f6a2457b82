module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum
module G = Hypergraph.Graph

type ctx = {
  g : G.t;
  all : Ns.t;
  dp : Plans.Dp_table.t;
  counters : Counters.t;
  emit : Ns.t -> int -> Ns.t -> int -> unit;
  mutable i1 : int;
      (* entry id of the csg [emit_csg] is finding complements for, kept
         here so the recursion closures capture nothing more *)
}

(* Simple-graph neighborhood: union of adjacencies minus S and X. *)
let neighborhood c s x =
  c.counters.Counters.neighborhood_calls <-
    c.counters.Counters.neighborhood_calls + 1;
  Ns.diff (G.simple_neighborhood c.g s) (Ns.union s x)

(* N(S, X) lies in V \ (S ∪ X), so a recursive call on (S ∪ S', X ∪ N)
   with S' ⊆ N has nothing to grow once S ∪ X ∪ N covers every node:
   the recursions skip those calls, as Dphyp's do. *)
let dead c s x' = Ns.subset c.all (Ns.union s x')

let connected c s1 s2 =
  Ns.exists (fun v -> Ns.intersects (G.simple_neighbors c.g v) s2) s1

(* The probes that find a side connected return its entry id, and a
   singleton's id is its node (leaves are seeded in ascending order on
   a fresh table). *)
let rec enumerate_cmp_rec c s1 s2 x =
  let n = neighborhood c s2 x in
  if not (Ns.is_empty n) then begin
    Se.iter_nonempty n (fun sub ->
        let s2' = Ns.union s2 sub in
        Counters.tick_pair c.counters;
        let i2 = Plans.Dp_table.id c.dp s2' in
        if i2 >= 0 && connected c s1 s2' then c.emit s1 c.i1 s2' i2);
    let x' = Ns.union x n in
    if not (dead c s2 x') then
      Se.iter_nonempty n (fun sub ->
          enumerate_cmp_rec c s1 (Ns.union s2 sub) x')
  end

let emit_csg c s1 i1 =
  c.i1 <- i1;
  let x = Ns.union s1 (Ns.upto (Ns.min_elt s1)) in
  let n = neighborhood c s1 x in
  Ns.iter_desc
    (fun v ->
      let s2 = Ns.singleton v in
      Counters.tick_pair c.counters;
      if connected c s1 s2 then c.emit s1 c.i1 s2 v;
      enumerate_cmp_rec c s1 s2 (Ns.union x (Ns.inter n (Ns.upto v))))
    n

let rec enumerate_csg_rec c s1 x =
  let n = neighborhood c s1 x in
  if not (Ns.is_empty n) then begin
    Se.iter_nonempty n (fun sub ->
        let s1' = Ns.union s1 sub in
        let i1 = Plans.Dp_table.id c.dp s1' in
        if i1 >= 0 then emit_csg c s1' i1);
    let x' = Ns.union x n in
    if not (dead c s1 x') then
      Se.iter_nonempty n (fun sub -> enumerate_csg_rec c (Ns.union s1 sub) x')
  end

let check_simple g =
  if G.has_hyperedges g then
    invalid_arg "Dpccp: graph has hyperedges; use Dphyp"

let run ~emit ~counters g dp =
  check_simple g;
  let c = { g; all = G.all_nodes g; dp; counters; emit; i1 = -1 } in
  let n = G.num_nodes g in
  for v = 0 to n - 1 do
    Plans.Dp_table.leaf dp v ~cost:0.0
  done;
  for v = n - 1 downto 0 do
    let s = Ns.singleton v in
    emit_csg c s v;
    enumerate_csg_rec c s (Ns.upto v)
  done

(* DPccp carries no neighborhoods: the emitter gets them fresh. *)
let emit_simple e g s1 i1 s2 i2 =
  Emit.emit e Emit.Symmetric s1 i1 (G.simple_neighborhood g s1) s2 i2
    (G.simple_neighborhood g s2)

let solve_with_table ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) g =
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ~model ~counters g dp in
  run ~emit:(emit_simple e g) ~counters g dp;
  (dp, Plans.Dp_table.find dp (G.all_nodes g))

let solve ?model ?counters g = snd (solve_with_table ?model ?counters g)

let enumerate_ccps g =
  let counters = Counters.create () in
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ~model:Costing.Cost_model.c_out ~counters g dp in
  let trace = ref [] in
  let emit s1 i1 s2 i2 =
    trace := (s1, s2) :: !trace;
    emit_simple e g s1 i1 s2 i2
  in
  run ~emit ~counters g dp;
  List.rev !trace
