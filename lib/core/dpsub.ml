module Ns = Nodeset.Node_set
module G = Hypergraph.Graph

let solve_with_table ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) g =
  let n = G.num_nodes g in
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ~model ~counters g dp in
  for v = 0 to n - 1 do
    Plans.Dp_table.leaf dp v ~cost:0.0
  done;
  (* All subsets of V in increasing numeric order; subsets precede
     supersets, so dpTable membership of the halves is a sound
     connectivity test. *)
  let full = Ns.to_int (G.all_nodes g) in
  for s = 3 to full do
    let set = Ns.unsafe_of_int s in
    if Ns.cardinal set >= 2 then
      (* S1 visits every non-empty proper subset of S; both directions
         of each unordered split occur, so emission is directed. *)
      Nodeset.Subset_enum.iter_proper_nonempty set (fun s1 ->
          let s2 = Ns.diff set s1 in
          Counters.tick_pair counters;
          let i1 = Plans.Dp_table.id dp s1 and i2 = Plans.Dp_table.id dp s2 in
          if i1 >= 0 && i2 >= 0 then begin
            let nb1 = G.simple_neighborhood g s1 in
            if G.connects g s1 nb1 s2 then
              Emit.emit e Emit.Directed s1 i1 nb1 s2 i2
                (G.simple_neighborhood g s2)
          end)
  done;
  (dp, Plans.Dp_table.find dp (G.all_nodes g))
