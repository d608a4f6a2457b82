module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum

(* value-based keys, so the memo is representation-agnostic and works
   past the single-word width *)
module NsTbl = Hashtbl.Make (struct
  type t = Ns.t

  let equal = Ns.equal
  let hash = Ns.hash
end)

type cache = { g : Graph.t; memo : bool NsTbl.t }

let make_cache g = { g; memo = NsTbl.create 1024 }

(* Definition 3, evaluated top-down with memoization: S is connected
   iff |S| = 1, or some partition (S1, S2) with min(S) ∈ S1 has both
   halves connected and an edge of the S-induced subgraph connecting
   them.  Cost is O(3^|S|) worst case — reference code, not hot. *)
let rec is_connected c s =
  if Ns.is_empty s then false
  else if Ns.is_singleton s then true
  else
    match NsTbl.find_opt c.memo s with
    | Some b -> b
    | None ->
        let rest = Ns.without_min s in
        let result =
          (* S1 ranges over subsets containing min(S): min(S) ∪ T for
             T ⊆ rest, T ⊊ rest. *)
          Se.exists_nonempty rest (fun s2 ->
              let s1 = Ns.diff s s2 in
              Graph.connects c.g s1 (Graph.simple_neighborhood c.g s1) s2
              && is_connected c s1 && is_connected c s2)
        in
        NsTbl.replace c.memo s result;
        result

let is_connected_graph g =
  let c = make_cache g in
  is_connected c (Graph.all_nodes g)
