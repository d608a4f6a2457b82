module Ns = Nodeset.Node_set

type rel = { name : string; card : float; free : Ns.t }

let base_rel ?(free = Ns.empty) ?(card = 1000.0) name = { name; card; free }

(* Beyond the relations and edges themselves, [t] carries the indexes
   that keep the enumeration hot path proportional to the number of
   edges *incident to S* rather than to the number of edges in the
   whole query, plus a scratch arena reused across calls so candidate
   generation does not allocate (see doc/algorithm.mld, "Complexity &
   engineering").

   The arena makes the accessors non-reentrant: they must not be
   called from inside a callback of another accessor on the same
   graph, and a [t] must not be shared between domains.  Every
   accessor fully consumes the arena before returning, so ordinary
   sequential use — including the mutually recursive enumeration in
   lib/core — is safe. *)
type t = {
  n : int;
  relations : rel array;
  edges : Hyperedge.t array;
  simple_nb : Ns.t array;  (* per node: union of simple-edge neighbors *)
  complex : Hyperedge.t list;  (* non-simple edges, id order *)
  complex_arr : Hyperedge.t array;  (* same edges as [complex] *)
  complex_by_node : int array array;
      (* per node: indexes into [complex_arr] of the complex edges
         whose cover contains the node, ascending *)
  edges_by_node : int array array;
      (* per node: ids of all edges whose cover contains it, ascending *)
  edge_covers : Ns.t array;  (* per edge id: u ∪ v ∪ w *)
  complex_union : Ns.t;  (* union of all complex-edge covers *)
  free_arr : Ns.t array;  (* per node: the relation's free set *)
  free_union : Ns.t;  (* union of all free sets; usually empty *)
  (* scratch arena (see the non-reentrancy note above) *)
  cand : Ns.t array;  (* candidate hypernodes, generation order *)
  cand_card : int array;  (* cardinality of cand.(i) *)
  cand_order : int array;  (* permutation of [0, cand_len) by cardinality *)
  cand_keep : bool array;  (* survives E♮ minimization? *)
  mutable cand_len : int;
  edge_buf : int array;  (* gathered incident edge indexes / ids *)
  edge_stamp : int array;  (* per edge slot: stamp of last gather *)
  mutable stamp : int;
}

(* In-place ascending sort; the gathered incidence lists are short, so
   insertion sort beats anything with setup cost. *)
let insertion_sort (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let make relations edges =
  let n = Array.length relations in
  if n = 0 then invalid_arg "Hypergraph.make: no relations";
  if n > Ns.max_nodes then
    invalid_arg
      (Printf.sprintf "Hypergraph.make: %d relations exceed the %d-node limit"
         n Ns.max_nodes);
  let all = Ns.full n in
  Array.iteri
    (fun i (e : Hyperedge.t) ->
      if e.id <> i then
        invalid_arg
          (Printf.sprintf "Hypergraph.make: edge at index %d has id %d" i e.id);
      if not (Ns.subset (Hyperedge.covers e) all) then
        invalid_arg "Hypergraph.make: edge mentions out-of-range node")
    edges;
  let simple_nb = Array.make n Ns.empty in
  let complex = ref [] in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if Hyperedge.is_simple e then begin
        let a = Ns.min_elt e.u and b = Ns.min_elt e.v in
        simple_nb.(a) <- Ns.add b simple_nb.(a);
        simple_nb.(b) <- Ns.add a simple_nb.(b)
      end
      else complex := e :: !complex)
    edges;
  let complex = List.rev !complex in
  let complex_arr = Array.of_list complex in
  let nc = Array.length complex_arr in
  let m = Array.length edges in
  let edge_covers = Array.map Hyperedge.covers edges in
  let complex_union =
    Array.fold_left
      (fun acc (e : Hyperedge.t) -> Ns.union acc edge_covers.(e.id))
      Ns.empty complex_arr
  in
  (* Per-node incidence lists; filling in id order keeps them sorted. *)
  let count_c = Array.make n 0 and count_e = Array.make n 0 in
  Array.iter
    (fun (e : Hyperedge.t) ->
      Ns.iter (fun v -> count_c.(v) <- count_c.(v) + 1) edge_covers.(e.id))
    complex_arr;
  Array.iter
    (fun cover -> Ns.iter (fun v -> count_e.(v) <- count_e.(v) + 1) cover)
    edge_covers;
  let complex_by_node = Array.init n (fun v -> Array.make count_c.(v) 0) in
  let edges_by_node = Array.init n (fun v -> Array.make count_e.(v) 0) in
  let fill_c = Array.make n 0 and fill_e = Array.make n 0 in
  Array.iteri
    (fun k (e : Hyperedge.t) ->
      Ns.iter
        (fun v ->
          complex_by_node.(v).(fill_c.(v)) <- k;
          fill_c.(v) <- fill_c.(v) + 1)
        edge_covers.(e.id))
    complex_arr;
  Array.iteri
    (fun i cover ->
      Ns.iter
        (fun v ->
          edges_by_node.(v).(fill_e.(v)) <- i;
          fill_e.(v) <- fill_e.(v) + 1)
        cover)
    edge_covers;
  {
    n;
    relations;
    edges;
    simple_nb;
    complex;
    complex_arr;
    complex_by_node;
    edges_by_node;
    edge_covers;
    complex_union;
    free_arr = Array.map (fun r -> r.free) relations;
    free_union =
      Array.fold_left (fun acc r -> Ns.union acc r.free) Ns.empty relations;
    cand = Array.make (max 1 (2 * nc)) Ns.empty;
    cand_card = Array.make (max 1 (2 * nc)) 0;
    cand_order = Array.make (max 1 (2 * nc)) 0;
    cand_keep = Array.make (max 1 (2 * nc)) false;
    cand_len = 0;
    edge_buf = Array.make (max 1 m) 0;
    edge_stamp = Array.make (max 1 m) 0;
    stamp = 0;
  }

let num_nodes g = g.n

let all_nodes g = Ns.full g.n

let relation g i = g.relations.(i)

let cardinality g i = g.relations.(i).card

(* Most queries have no table-valued functions at all, so the common
   case is a single emptiness test. *)
let free_of g s =
  if Ns.is_empty g.free_union then Ns.empty
  else Ns.union_over_array g.free_arr s

let edges g = g.edges

let num_edges g = Array.length g.edges

let edge g i = g.edges.(i)

let edge_cover g i = g.edge_covers.(i)

let simple_neighbors g i = g.simple_nb.(i)

let simple_neighborhood g s = Ns.union_over_array g.simple_nb s

let complex_edges g = g.complex

(* ---- indexed candidate generation --------------------------------- *)

(* Gather into [g.edge_buf], deduplicated via stamps and restored to
   ascending order, the [complex_arr] indexes of the complex edges
   incident to [s].  Returns the count. *)
let gather_incident_complex g s =
  g.stamp <- g.stamp + 1;
  let st = g.stamp in
  let cnt = ref 0 in
  let rem = ref s in
  while not (Ns.is_empty !rem) do
    let lst = g.complex_by_node.(Ns.min_elt !rem) in
    for i = 0 to Array.length lst - 1 do
      let k = lst.(i) in
      if g.edge_stamp.(k) <> st then begin
        g.edge_stamp.(k) <- st;
        g.edge_buf.(!cnt) <- k;
        incr cnt
      end
    done;
    rem := Ns.without_min !rem
  done;
  insertion_sort g.edge_buf !cnt;
  !cnt

(* E♮0(S, X) into the arena: candidate hypernodes reachable from S,
   disjoint from S and X.  Generalized edges contribute v ∪ (w \ S)
   when u ⊆ S (and symmetrically); the w-part outside S must travel
   with the opposite side (Section 6).  Generation order — ascending
   edge id, u-side before v-side — matches what a scan of all complex
   edges in id order produces. *)
let collect_candidates g s x =
  let sx = Ns.union s x in
  let nb = gather_incident_complex g s in
  g.cand_len <- 0;
  for i = 0 to nb - 1 do
    let e = g.complex_arr.(g.edge_buf.(i)) in
    let w_out = Ns.diff e.w s in
    if Ns.subset e.u s then begin
      let cand = Ns.union e.v w_out in
      if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then begin
        g.cand.(g.cand_len) <- cand;
        g.cand_len <- g.cand_len + 1
      end
    end;
    if Ns.subset e.v s then begin
      let cand = Ns.union e.u w_out in
      if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then begin
        g.cand.(g.cand_len) <- cand;
        g.cand_len <- g.cand_len + 1
      end
    end
  done

(* Shared E♮0 → E♮ minimization: a candidate survives iff it avoids
   every simple neighbor (singleton hypernodes are minimal) and no
   other candidate is a strict subset of it.  Ranking the arena by
   cardinality means each candidate is only checked against strictly
   smaller ones — a strict subset has strictly smaller cardinality —
   so the sweep stops at the cardinality boundary instead of scanning
   all pairs.  Fills [g.cand_keep]; duplicates all survive (equal sets
   subsume nothing strictly), consumers that need a deduplicated list
   collapse them on output. *)
let minimize g simple =
  let k = g.cand_len in
  for i = 0 to k - 1 do
    g.cand_order.(i) <- i;
    g.cand_card.(i) <- Ns.cardinal g.cand.(i)
  done;
  for i = 1 to k - 1 do
    let x = g.cand_order.(i) in
    let cx = g.cand_card.(x) in
    let j = ref (i - 1) in
    while !j >= 0 && g.cand_card.(g.cand_order.(!j)) > cx do
      g.cand_order.(!j + 1) <- g.cand_order.(!j);
      decr j
    done;
    g.cand_order.(!j + 1) <- x
  done;
  for oi = 0 to k - 1 do
    let i = g.cand_order.(oi) in
    let c = g.cand.(i) in
    let keep = ref (Ns.disjoint c simple) in
    let oj = ref 0 in
    while !keep && !oj < oi do
      if Ns.strict_subset g.cand.(g.cand_order.(!oj)) c then keep := false;
      incr oj
    done;
    g.cand_keep.(i) <- !keep
  done

(* [nb] is [simple_neighborhood g s], which DPhyp carries down its
   recursion instead of re-walking [s]. *)
let neighborhood g s nb x =
  let simple = Ns.diff nb (Ns.union s x) in
  if Ns.disjoint s g.complex_union then simple
  else begin
    collect_candidates g s x;
    if g.cand_len = 0 then simple
    else begin
      minimize g simple;
      let nb = ref simple in
      for i = 0 to g.cand_len - 1 do
        if g.cand_keep.(i) then nb := Ns.add (Ns.min_elt g.cand.(i)) !nb
      done;
      !nb
    end
  end

exception Found_edge

(* The members of [s1] or [s2], whichever side has fewer, that lie on
   a complex edge — every complex edge meeting both sides is incident
   to them.  Empty when a side meets no complex edge. *)
let complex_side g s1 s2 =
  let c1 = Ns.inter s1 g.complex_union in
  if Ns.is_empty c1 then c1
  else
    let c2 = Ns.inter s2 g.complex_union in
    if Ns.is_empty c2 then c2
    else if Ns.cardinal c1 <= Ns.cardinal c2 then c1
    else c2

(* A simple edge joins s1 and s2 iff s2 meets s1's simple
   neighborhood: one word test on the common path. *)
let connects g s1 nb1 s2 =
  Ns.intersects nb1 s2
  ||
  try
    let rem = ref (complex_side g s1 s2) in
    while not (Ns.is_empty !rem) do
      let lst = g.complex_by_node.(Ns.min_elt !rem) in
      for i = 0 to Array.length lst - 1 do
        if Hyperedge.connects g.complex_arr.(lst.(i)) s1 s2 then
          raise Found_edge
      done;
      rem := Ns.without_min !rem
    done;
    false
  with Found_edge -> true

(* Every edge a pair applies meets both sides, so it is incident to
   the side with fewer members, and to few of its nodes: a simple edge
   to one on the cut (a simple neighbor of the other side), a complex
   edge to one on a complex edge.  Only their incidence lists are
   scanned — on a graph of simple edges, just the cut's. *)
let gather_pair_edges g s1 nb1 s2 nb2 =
  let scan =
    if Ns.cardinal s1 <= Ns.cardinal s2 then
      Ns.inter s1 (Ns.union nb2 g.complex_union)
    else Ns.inter s2 (Ns.union nb1 g.complex_union)
  in
  let both = Ns.union s1 s2 in
  g.stamp <- g.stamp + 1;
  let st = g.stamp in
  let cnt = ref 0 in
  let rem = ref scan in
  while not (Ns.is_empty !rem) do
    let lst = g.edges_by_node.(Ns.min_elt !rem) in
    for i = 0 to Array.length lst - 1 do
      let id = lst.(i) in
      if g.edge_stamp.(id) <> st then begin
        g.edge_stamp.(id) <- st;
        let cover = g.edge_covers.(id) in
        if
          Ns.subset cover both && Ns.intersects cover s1
          && Ns.intersects cover s2
        then begin
          g.edge_buf.(!cnt) <- id;
          incr cnt
        end
      end
    done;
    rem := Ns.without_min !rem
  done;
  insertion_sort g.edge_buf !cnt;
  !cnt

let gathered g i = g.edge_buf.(i)

(* A connecting edge is covered by s1 ∪ s2 and meets both sides, so
   it is among the pair's gathered edges. *)
let connecting_edges g s1 s2 =
  let cnt =
    gather_pair_edges g s1 (simple_neighborhood g s1) s2
      (simple_neighborhood g s2)
  in
  let acc = ref [] in
  for i = cnt - 1 downto 0 do
    let e = g.edges.(g.edge_buf.(i)) in
    match Hyperedge.orient e s1 s2 with
    | Some o -> acc := (e, o) :: !acc
    | None -> ()
  done;
  !acc

let has_hyperedges g = g.complex <> []

(* Weak components: union-find over nodes, each edge merging all the
   relations it mentions. *)
let components g =
  let parent = Array.init g.n (fun i -> i) in
  (* find with path halving: each step links the node to its
     grandparent, flattening the tree as it walks. *)
  let find i =
    let i = ref i in
    while parent.(!i) <> !i do
      parent.(!i) <- parent.(parent.(!i));
      i := parent.(!i)
    done;
    !i
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  Array.iter
    (fun (e : Hyperedge.t) ->
      let cover = g.edge_covers.(e.id) in
      let root = Ns.min_elt cover in
      Ns.iter (fun v -> union root v) cover)
    g.edges;
  let comp = Hashtbl.create 8 in
  for i = 0 to g.n - 1 do
    let r = find i in
    let prev = Option.value ~default:Ns.empty (Hashtbl.find_opt comp r) in
    Hashtbl.replace comp r (Ns.add i prev)
  done;
  Hashtbl.fold (fun _ s acc -> s :: acc) comp []
  |> List.sort (fun a b -> Int.compare (Ns.min_elt a) (Ns.min_elt b))

let ensure_connected g =
  match components g with
  | [] | [ _ ] -> g
  | first :: rest ->
      (* Chain consecutive components with selectivity-1 cross-product
         hyperedges whose hypernodes are the full components (§2.1). *)
      let next_id = ref (Array.length g.edges) in
      let glue =
        List.rev
          (snd
             (List.fold_left
                (fun (prev, acc) comp ->
                  let e = Hyperedge.make ~id:!next_id prev comp in
                  incr next_id;
                  (comp, e :: acc))
                (first, []) rest))
      in
      make g.relations (Array.append g.edges (Array.of_list glue))

(* ---- contraction (IDP support) ------------------------------------ *)

(* A block can be contracted iff no edge straddles it: an edge whose
   cover is not fully inside the block must keep its two hypernodes on
   one side of the block boundary each, otherwise collapsing the block
   would make u and v overlap. *)
let contractible g block =
  Array.for_all
    (fun (e : Hyperedge.t) ->
      Ns.subset g.edge_covers.(e.id) block
      || not (Ns.intersects e.u block && Ns.intersects e.v block))
    g.edges

type contraction = {
  cgraph : t;
  node_of : int array;
  edge_of : int array;
}

let contract g ~block ~card =
  if Ns.cardinal block < 2 then
    invalid_arg "Graph.contract: block needs at least two nodes";
  if not (Ns.subset block (all_nodes g)) then
    invalid_arg "Graph.contract: block mentions out-of-range node";
  if not (contractible g block) then
    invalid_arg "Graph.contract: an edge straddles the block boundary";
  let b_min = Ns.min_elt block in
  (* Surviving nodes keep their relative order; the compound node sits
     where the block's minimal member was. *)
  let node_of = Array.make g.n 0 in
  let next = ref 0 in
  let b_new = ref 0 in
  for v = 0 to g.n - 1 do
    if Ns.mem v block then begin
      if v = b_min then begin
        b_new := !next;
        incr next
      end
    end
    else begin
      node_of.(v) <- !next;
      incr next
    end
  done;
  let b_new = !b_new in
  Ns.iter (fun v -> node_of.(v) <- b_new) block;
  let n' = !next in
  let map_set s = Ns.fold (fun v acc -> Ns.add node_of.(v) acc) s Ns.empty in
  let name =
    "("
    ^ String.concat "*"
        (List.rev (Ns.fold (fun v acc -> g.relations.(v).name :: acc) block []))
    ^ ")"
  in
  let rels = Array.make n' (base_rel "") in
  for v = 0 to g.n - 1 do
    if not (Ns.mem v block) then begin
      let r = g.relations.(v) in
      rels.(node_of.(v)) <- { r with free = map_set r.free }
    end
  done;
  let block_free =
    Ns.diff
      (Ns.fold (fun v acc -> Ns.union g.relations.(v).free acc) block Ns.empty)
      block
  in
  rels.(b_new) <- { name; card; free = map_set block_free };
  let edges' = ref [] and edge_of = ref [] in
  let next_id = ref 0 in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if not (Ns.subset g.edge_covers.(e.id) block) then begin
        (* edges fully inside the block were applied by the block plan
           and disappear; every other edge survives with its sides
           mapped through [node_of] (at most one side touches the
           block, so u' and v' stay disjoint) *)
        let u = map_set e.u and v = map_set e.v in
        let w = Ns.diff (Ns.diff (map_set e.w) u) v in
        let e' =
          Hyperedge.make ~w ~op:e.op ~pred:e.pred ~sel:e.sel ~aggs:e.aggs
            ~id:!next_id u v
        in
        edges' := e' :: !edges';
        edge_of := e.id :: !edge_of;
        incr next_id
      end)
    g.edges;
  let cgraph = make rels (Array.of_list (List.rev !edges')) in
  { cgraph; node_of; edge_of = Array.of_list (List.rev !edge_of) }

(* ---- induced subgraphs (block DP support) ------------------------- *)

(* The block's members renumbered 0..k-1 in ascending order, so every
   decision the enumeration takes by node or edge order — neighborhood
   seeds, root order, edge gathering, tie-breaks — comes out the same
   on the subgraph as on the block inside [g]. *)
type induced = { sub : t; members : int array; edge_ids : int array }

let induced g block =
  let members = Array.of_list (Ns.to_list block) in
  let local = Array.make g.n (-1) in
  Array.iteri (fun i v -> local.(v) <- i) members;
  let map_set s =
    Ns.fold
      (fun v acc -> if local.(v) < 0 then acc else Ns.add local.(v) acc)
      s Ns.empty
  in
  let rels =
    Array.map
      (fun v ->
        let r = g.relations.(v) in
        { r with free = map_set r.free })
      members
  in
  let edges = ref [] and ids = ref [] and next_id = ref 0 in
  Array.iter
    (fun (e : Hyperedge.t) ->
      if Ns.subset g.edge_covers.(e.id) block then begin
        edges :=
          Hyperedge.make ~w:(map_set e.w) ~op:e.op ~pred:e.pred ~sel:e.sel
            ~aggs:e.aggs ~id:!next_id (map_set e.u) (map_set e.v)
          :: !edges;
        ids := e.id :: !ids;
        incr next_id
      end)
    g.edges;
  {
    sub = make rels (Array.of_list (List.rev !edges));
    members;
    edge_ids = Array.of_list (List.rev !ids);
  }

let lift ind s = Ns.fold (fun v acc -> Ns.add ind.members.(v) acc) s Ns.empty

let pp ppf g =
  Format.fprintf ppf "@[<v>hypergraph: %d nodes, %d edges@," g.n
    (Array.length g.edges);
  Array.iteri
    (fun i r -> Format.fprintf ppf "  R%d = %s (|%s| = %g)@," i r.name r.name r.card)
    g.relations;
  Array.iter (fun e -> Format.fprintf ppf "  %a@," Hyperedge.pp e) g.edges;
  Format.fprintf ppf "@]"
