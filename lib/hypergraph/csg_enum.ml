module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum

(* Nothing here carries neighborhoods: each test computes its own. *)
let connects g s1 s2 = Graph.connects g s1 (Graph.simple_neighborhood g s1) s2

(* All connected subsets of the node set, ascending numeric order. *)
let connected_subgraphs g =
  let cache = Connectivity.make_cache g in
  let acc = ref [] in
  Se.iter_nonempty (Graph.all_nodes g) (fun s ->
      if Connectivity.is_connected cache s then acc := s :: !acc);
  List.rev !acc

let count_connected_subgraphs g = List.length (connected_subgraphs g)

let csg_cmp_pairs g =
  let cache = Connectivity.make_cache g in
  let all = Graph.all_nodes g in
  let acc = ref [] in
  Se.iter_nonempty all (fun s1 ->
      if Connectivity.is_connected cache s1 then
        Se.iter_nonempty (Ns.diff all s1) (fun s2 ->
            if
              Ns.min_elt s1 < Ns.min_elt s2
              && Connectivity.is_connected cache s2
              && connects g s1 s2
            then acc := (s1, s2) :: !acc));
  List.rev !acc

let count_csg_cmp_pairs g = List.length (csg_cmp_pairs g)

(* Cheap estimate of the connected-subgraph count for DP-table
   pre-sizing.  Exact counting is exponential, but the small layers
   are countable directly: c2 (connected pairs) and c3 (connected
   triples).  Only a simple edge joins two nodes, so c2 is half the
   summed simple degree, and a triple held together by simple edges
   has two of them, so c3 is the number of 2-paths less twice the
   triangles — O(sum of deg^2) set operations.  Only an edge covering
   at most three nodes can join a pair to a third node, so a triple
   a complex edge covers is then settled on its own.  Layer sizes of
   the common query shapes grow (or shrink) roughly geometrically —
   chains stay flat, stars and cliques multiply by ~(n-k)/k — so we
   extrapolate with ratio c3/c2 and sum the resulting geometric
   series over the remaining layers.  The answer is a sizing hint,
   not a count: it is doubled for slack and capped so a pathological
   ratio cannot demand gigabytes. *)
let estimate_connected_subgraphs g =
  let n = Graph.num_nodes g in
  if n <= 2 then n + 1
  else if n > Ns.small_capacity then
    (* Graphs this wide are planned by the large-query tiers, whose
       block tables are built on narrow induced subgraphs; a
       whole-graph table over one gets a linear hint. *)
    max 64 (min (1 lsl 21) (16 * (n + Array.length (Graph.edges g))))
  else begin
    let nb = Graph.simple_neighbors g in
    let c2 = ref 0 and c3 = ref 0 in
    Ns.iter
      (fun v ->
        let nv = nb v in
        let d = Ns.cardinal nv in
        c3 := !c3 + (d * (d - 1) / 2);
        (* each edge once, from its smaller end; each triangle once,
           from its two smallest nodes *)
        Ns.iter
          (fun u ->
            incr c2;
            let tri = Ns.cardinal (Ns.diff (Ns.inter nv (nb u)) (Ns.upto u)) in
            c3 := !c3 - (2 * tri))
          (Ns.diff nv (Ns.upto v)))
      (Graph.all_nodes g);
    let triples =
      List.sort_uniq Ns.compare
        (List.filter_map
           (fun (e : Hyperedge.t) ->
             let c = Graph.edge_cover g e.id in
             if Ns.cardinal c = 3 then Some c else None)
           (Graph.complex_edges g))
    in
    (* A triple with fewer than two simple edges is not in c3 yet.  It
       counts when a joined pair in it connects to the third node: the
       smallest pair if it is joined, else a pair through the largest
       node. *)
    List.iter
      (fun t ->
        let degrees =
          Ns.fold (fun v a -> a + Ns.cardinal (Ns.inter (nb v) t)) t 0
        in
        match List.map Ns.singleton (Ns.to_list t) with
        | [ si; sj; sk ] when degrees < 4 ->
            let joins a b c = connects g a b && connects g (Ns.union a b) c in
            let connected =
              if connects g si sj then joins si sj sk
              else joins si sk sj || joins sj sk si
            in
            if connected then incr c3
        | _ -> ())
      triples;
    let cap = 1 lsl 21 in
    let r = if !c2 = 0 then 1.0 else float_of_int !c3 /. float_of_int !c2 in
    let total = ref (float_of_int (n + !c2 + !c3)) in
    let layer = ref (float_of_int !c3) in
    (try
       for _ = 4 to n do
         layer := !layer *. r;
         total := !total +. !layer;
         if !total > float_of_int cap then raise Exit
       done
     with Exit -> ());
    let est = 2.0 *. !total in
    max 64 (if est > float_of_int cap then cap else int_of_float est)
  end

module NsTbl = Hashtbl.Make (struct
  type t = Ns.t

  let equal = Ns.equal
  let hash = Ns.hash
end)

let count_join_trees g =
  let conn = Connectivity.make_cache g in
  let memo : int NsTbl.t = NsTbl.create 256 in
  let rec trees s =
    if Ns.is_singleton s then 1
    else
      match NsTbl.find_opt memo s with
      | Some n -> n
      | None ->
          let total = ref 0 in
          (* canonical partitions: min(s) stays in s1 *)
          Se.iter_nonempty (Ns.without_min s) (fun s2 ->
              let s1 = Ns.diff s s2 in
              if
                Connectivity.is_connected conn s1
                && Connectivity.is_connected conn s2
                && connects g s1 s2
              then total := !total + (2 * trees s1 * trees s2));
          NsTbl.replace memo s !total;
          !total
  in
  trees (Graph.all_nodes g)
