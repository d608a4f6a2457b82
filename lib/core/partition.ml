module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

(* DPhyp-on-partitions: the large-query tier.

   Queries beyond the exhaustive-DP range (in particular the wide
   graphs past Node_set.small_capacity relations) are planned in three
   moves:

   1. {e Partition} the query graph into connected blocks of bounded
      size by greedy edge clustering: union-find over the nodes,
      merging along the most selective simple edges first (the joins
      you least want to cut — they shrink intermediate results the
      most), while complex-hyperedge covers are merged unconditionally
      so no block boundary ever straddles a hypernode (which would
      make the block uncontractible).

   2. {e Solve each block exactly} — DPhyp on the block's induced
      subgraph, renumbered in rank order, so a 10-node block of a
      160-relation query works on 10-bit sets and a flat 2^10 table —
      and contract it to one node (Idp.solve_block, Idp.contract).

   3. {e Stitch} with IDP's rounds on the contracted graph
      (Idp.rounds), which also absorb whatever the partition left as
      singletons (a star's satellites, say, can only cluster with the
      hub, so most of them arrive here unmerged).

   So this tier is IDP entered with pre-clustered blocks.  Every plan
   is flattened back onto the original graph as it is built, so the
   result validates under Plan_check like any other optimizer
   output. *)

let default_block_size = 10
let default_stitch_k = 10

(* Greedy edge clustering into connected blocks of at most
   [block_size] nodes (complex covers may force a block over the
   limit: correctness first, the block DP just works harder).  Blocks
   are returned in ascending min-member order, singletons included. *)
let partition g ~block_size =
  let n = G.num_nodes g in
  let parent = Array.init n (fun v -> v) in
  let size = Array.make n 1 in
  let rec find v =
    if parent.(v) = v then v
    else begin
      let r = find parent.(v) in
      parent.(v) <- r;
      r
    end
  in
  let merge a b =
    let ra = find a and rb = find b in
    if ra <> rb then begin
      let ra, rb = if ra < rb then (ra, rb) else (rb, ra) in
      parent.(rb) <- ra;
      size.(ra) <- size.(ra) + size.(rb)
    end
  in
  (* complex covers first, unconditionally: a hypernode split across
     blocks would make every containing block uncontractible *)
  List.iter
    (fun (e : He.t) ->
      let cover = He.covers e in
      match Ns.min_elt_opt cover with
      | None -> ()
      | Some r -> Ns.iter (fun v -> merge r v) cover)
    (G.complex_edges g);
  (* then simple edges, most selective first (ties by id, so the
     clustering is deterministic) *)
  let simple =
    Array.to_list (G.edges g)
    |> List.filter (fun (e : He.t) -> Ns.is_singleton e.u && Ns.is_singleton e.v)
    |> List.stable_sort (fun (a : He.t) (b : He.t) ->
           match Float.compare a.sel b.sel with
           | 0 -> Int.compare a.id b.id
           | c -> c)
  in
  List.iter
    (fun (e : He.t) ->
      let a = find (Ns.min_elt e.u) and b = find (Ns.min_elt e.v) in
      if a <> b && size.(a) + size.(b) <= block_size then merge a b)
    simple;
  let members = Array.make n Ns.empty in
  for v = n - 1 downto 0 do
    let r = find v in
    members.(r) <- Ns.add v members.(r)
  done;
  Array.to_list members |> List.filter (fun s -> not (Ns.is_empty s))

let solve ?obs ?(model = Costing.Cost_model.c_out)
    ?(counters = Counters.create ()) ?(block_size = default_block_size)
    ?(k = default_stitch_k) g0 =
  if block_size < 2 then
    invalid_arg "Partition.solve: block_size must be at least 2";
  if k < 2 then invalid_arg "Partition.solve: k must be at least 2";
  let blocks =
    Obs.Span.with_opt obs "partition:cluster"
      ~attrs:[ ("nodes", Obs.Span.Int (G.num_nodes g0)) ]
      (fun _ -> partition g0 ~block_size)
  in
  let rec absorb (st : Idp.state) = function
    | [] -> Idp.rounds ?obs ~model ~counters ~k st
    | block :: rest when Ns.cardinal block < 2 -> absorb st rest
    | block :: rest -> (
        let bcur =
          Ns.fold (fun v acc -> Ns.add st.cur_of.(v) acc) block Ns.empty
        in
        let b =
          Idp.solve_block ?obs ~model ~counters st
            ~label:(Printf.sprintf "partition:block:R%d" (Ns.min_elt block))
            ~span:"partition:block"
            ~attrs:[ ("block_nodes", Obs.Span.Int (Ns.cardinal bcur)) ]
            bcur
            (fun _ b -> b)
        in
        match b.plan with
        | Some bp when Ns.cardinal bcur = G.num_nodes st.graph ->
            (* one block covers the whole graph: that exact DP run
               already decided everything *)
            Some (Idp.flatten ~model st bp)
        | Some bp when G.contractible st.graph bp.set ->
            absorb (Idp.contract ~model st bp) rest
        | _ ->
            (* the induced subgraph could not be assembled end-to-end
               (complex-edge interactions), or its winner straddles a
               complex edge; leave the block to the stitching rounds *)
            absorb st rest)
  in
  absorb (Idp.start g0) blocks
