module Ns = Nodeset.Node_set
module G = Hypergraph.Graph

(* Figure 1, with the ( * ) tests generalized to hyperedges.  The outer
   loops follow the paper exactly: sizes ascending, then every ordered
   pair (S1, S2) of dpTable entries with |S1| = s1, |S2| = s - s1.
   Ordered means each unordered pair is visited in both directions
   across the s1 range, so emission is directed (one plan per visit),
   just like Figure 1's single [dpTable[S1] B dpTable[S2]]. *)
let solve_with_table ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) g =
  let n = G.num_nodes g in
  let dp = Plans.Dp_table.create_for g in
  let e = Emit.make ~model ~counters g dp in
  for v = 0 to n - 1 do
    Plans.Dp_table.leaf dp v ~cost:0.0
  done;
  for s = 2 to n do
    for s1 = 1 to s - 1 do
      let s2 = s - s1 in
      (* Snapshot the size buckets: entries of size s are created
         during this iteration but must not be joined at size s1/s2
         (they would be, transiently, if we iterated live lists). *)
      let sets1 = Plans.Dp_table.sets_of_size dp s1 in
      let sets2 = Plans.Dp_table.sets_of_size dp s2 in
      List.iter
        (fun set1 ->
          List.iter
            (fun set2 ->
              Counters.tick_pair counters;
              if Ns.disjoint set1 set2 then begin
                let nb1 = G.simple_neighborhood g set1 in
                if G.connects g set1 nb1 set2 then
                  Emit.emit e Emit.Directed set1
                    (Plans.Dp_table.id dp set1)
                    nb1 set2
                    (Plans.Dp_table.id dp set2)
                    (G.simple_neighborhood g set2)
              end)
            sets2)
        sets1
    done
  done;
  (dp, Plans.Dp_table.find dp (G.all_nodes g))
