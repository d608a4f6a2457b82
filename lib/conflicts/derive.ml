module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Ot = Relalg.Optree

type filter =
  Ns.t -> Ns.t -> (He.t * He.orientation) list -> bool

(* Shared edge construction; empty sides fall back to the operator's
   full subtree side, which encodes a cross-product constraint per
   Section 2.1. *)
let edge_of_op ~cards:_ ~sel ~id ~l ~r (info : Analysis.op_info) =
  let l = if Ns.is_empty l then info.left_tables else l in
  let r = if Ns.is_empty r then info.right_tables else r in
  He.make ~op:info.op ~pred:info.pred ~sel ~aggs:info.aggs ~id l r

let relations_of ~cards (a : Analysis.t) =
  let leaves = Ot.leaves a.tree in
  Array.of_list
    (List.map
       (fun (lf : Ot.leaf) -> G.base_rel ~free:lf.free ~card:(cards lf.node) lf.name)
       leaves)

let default_cards _ = 1000.0

let default_sels _ = 0.1

let hypergraph ?(cards = default_cards) ?(sels = default_sels) (a : Analysis.t)
    =
  let edges =
    Array.map
      (fun (info : Analysis.op_info) ->
        let l, r = Analysis.hyperedge_sides info in
        edge_of_op ~cards ~sel:(sels info.index) ~id:info.index ~l ~r info)
      a.ops
  in
  G.make (relations_of ~cards a) edges

let ses_graph ?(cards = default_cards) ?(sels = default_sels) (a : Analysis.t)
    =
  let edges =
    Array.map
      (fun (info : Analysis.op_info) ->
        let l, r = Analysis.ses_sides info in
        edge_of_op ~cards ~sel:(sels info.index) ~id:info.index ~l ~r info)
      a.ops
  in
  let g = G.make (relations_of ~cards a) edges in
  (* The TES test of the generate-and-test approach: every connecting
     edge's TES must be fully assembled, with the l-part and r-part on
     opposite sides matching the edge's orientation. *)
  let tes_l = Array.map Analysis.hyperedge_sides a.ops in
  let ok_one s1 s2 ((e : He.t), orient) =
    if e.id >= Array.length tes_l then true
    else begin
      let l, r = tes_l.(e.id) in
      match orient with
      | He.Forward -> Ns.subset l s1 && Ns.subset r s2
      | He.Backward -> Ns.subset l s2 && Ns.subset r s1
    end
  in
  let filter s1 s2 edges = List.for_all (ok_one s1 s2) edges in
  (g, filter)
