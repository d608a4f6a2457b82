(* Workload generators: shapes, the §4 split families, the §5.8
   non-inner trees, and the random generators used by property tests. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_shapes_edge_counts () =
  check_int "chain 6" 5 (G.num_edges (Workloads.Shapes.chain 6));
  check_int "cycle 6" 6 (G.num_edges (Workloads.Shapes.cycle 6));
  check_int "star 6" 6 (G.num_edges (Workloads.Shapes.star 6));
  check_int "star 6 relations" 7 (G.num_nodes (Workloads.Shapes.star 6));
  check_int "clique 6" 15 (G.num_edges (Workloads.Shapes.clique 6));
  check_int "grid 2x3" 7 (G.num_edges (Workloads.Shapes.grid ~rows:2 ~cols:3 ()))

let test_shapes_validation () =
  check "cycle needs 3" true
    (try ignore (Workloads.Shapes.cycle 2); false with Invalid_argument _ -> true);
  check "chain needs 1" true
    (try ignore (Workloads.Shapes.chain 0); false with Invalid_argument _ -> true)

let test_shapes_deterministic () =
  let g1 = Workloads.Shapes.cycle 8 and g2 = Workloads.Shapes.cycle 8 in
  check "same cards" true
    (List.for_all
       (fun i -> G.cardinality g1 i = G.cardinality g2 i)
       (List.init 8 Fun.id));
  let p = { Workloads.Shapes.default_params with seed = 99 } in
  let g3 = Workloads.Shapes.cycle ~p 8 in
  check "different seed differs" true
    (List.exists (fun i -> G.cardinality g1 i <> G.cardinality g3 i) (List.init 8 Fun.id))

let test_shapes_connected () =
  List.iter
    (fun g -> check "connected" true (Hypergraph.Connectivity.is_connected_graph g))
    [
      Workloads.Shapes.chain 7;
      Workloads.Shapes.cycle 7;
      Workloads.Shapes.star 6;
      Workloads.Shapes.clique 5;
      Workloads.Shapes.grid ~rows:3 ~cols:3 ();
    ]

(* ---------- split families (§4) ---------- *)

let test_family_lengths () =
  (* split levels: 0..1 for 4 relations, 0..3 for 8, 0..7 for 16 —
     exactly the x-axes of the paper's figures *)
  check_int "cycle4" 2 (List.length (Workloads.Splits.cycle_based 4));
  check_int "cycle8" 4 (List.length (Workloads.Splits.cycle_based 8));
  check_int "cycle16" 8 (List.length (Workloads.Splits.cycle_based 16));
  check_int "star4" 2 (List.length (Workloads.Splits.star_based 4));
  check_int "star8" 4 (List.length (Workloads.Splits.star_based 8));
  check_int "star16" 8 (List.length (Workloads.Splits.star_based 16));
  check_int "num_splits" 7 (Workloads.Splits.num_splits (Workloads.Splits.cycle_based 16))

let test_family_structure () =
  let fam = Workloads.Splits.cycle_based 8 in
  let g0 = List.hd fam in
  check_int "G0 edges" 9 (G.num_edges g0);
  check_int "G0 one hyperedge" 1 (List.length (G.complex_edges g0));
  let rec last = function [ x ] -> x | _ :: t -> last t | [] -> assert false in
  let gl = last fam in
  check "last level all simple" true (not (G.has_hyperedges gl));
  check_int "last level edges" 12 (G.num_edges gl);
  (* every level connected *)
  List.iter
    (fun g -> check "level connected" true (Hypergraph.Connectivity.is_connected_graph g))
    fam

let test_split_edge () =
  let e = He.make ~sel:0.04 ~id:0 (Ns.of_list [ 0; 1 ]) (Ns.of_list [ 4; 5 ]) in
  let c1, c2 = Workloads.Splits.split_edge e ~id1:7 ~id2:8 in
  check_int "id1" 7 c1.He.id;
  check_int "id2" 8 c2.He.id;
  (* crossed pairing: lo(u) with hi(v), hi(u) with lo(v) *)
  Alcotest.(check (list int)) "c1 u" [ 0 ] (Ns.to_list c1.He.u);
  Alcotest.(check (list int)) "c1 v" [ 5 ] (Ns.to_list c1.He.v);
  Alcotest.(check (list int)) "c2 u" [ 1 ] (Ns.to_list c2.He.u);
  Alcotest.(check (list int)) "c2 v" [ 4 ] (Ns.to_list c2.He.v);
  (* child selectivities multiply back to the parent's *)
  Alcotest.(check (float 1e-9)) "sel preserved" 0.04 (c1.He.sel *. c2.He.sel);
  check "simple edge unsplittable" true
    (try ignore (Workloads.Splits.split_edge (He.simple ~id:0 0 1) ~id1:0 ~id2:1); false
     with Invalid_argument _ -> true)

let test_family_search_space_grows () =
  (* splitting hyperedges enlarges the search space monotonically *)
  let ccps =
    List.map Hypergraph.Csg_enum.count_csg_cmp_pairs (Workloads.Splits.cycle_based 8)
  in
  let rec nondecreasing = function
    | a :: b :: t -> a <= b && nondecreasing (b :: t)
    | _ -> true
  in
  check "ccp nondecreasing in splits" true (nondecreasing ccps)

(* ---------- non-inner workloads (§5.8) ---------- *)

let test_noninner_trees_valid () =
  List.iter
    (fun k ->
      let t = Workloads.Noninner.star_antijoins ~n_rel:16 ~k () in
      check "star valid" true (Relalg.Optree.validate t = Ok ());
      check_int "left deep ops" 15 (Relalg.Optree.num_ops t);
      check "left deep" true (Relalg.Optree.is_left_deep t);
      let t2 = Workloads.Noninner.cycle_outerjoins ~n_rel:16 ~k () in
      check "cycle valid" true (Relalg.Optree.validate t2 = Ok ()))
    [ 0; 1; 8; 15 ]

let test_noninner_op_counts () =
  let count_kind kind t =
    List.length
      (List.filter
         (fun (n : Relalg.Optree.node) -> n.op.Relalg.Operator.kind = kind)
         (Relalg.Optree.operators t))
  in
  let t = Workloads.Noninner.star_antijoins ~n_rel:16 ~k:5 () in
  check_int "5 antijoins" 5 (count_kind Relalg.Operator.Left_anti t);
  check_int "10 joins" 10 (count_kind Relalg.Operator.Inner t);
  let t2 = Workloads.Noninner.cycle_outerjoins ~n_rel:16 ~k:7 () in
  check_int "7 louters" 7 (count_kind Relalg.Operator.Left_outer t2)

let test_noninner_bounds () =
  check "k too large rejected" true
    (try ignore (Workloads.Noninner.star_antijoins ~n_rel:4 ~k:4 ()); false
     with Invalid_argument _ -> true)

let test_catalog_of () =
  let t = Workloads.Noninner.star_optree ~n_rel:5 () in
  let cards = Workloads.Noninner.catalog_of t in
  check "positive cards" true (List.for_all (fun i -> cards i > 0.0) [ 0; 1; 2; 3; 4 ]);
  check "unknown relation rejected" true
    (try ignore (cards 99); false with Invalid_argument _ -> true)

(* ---------- closed forms ---------- *)

let test_formulas_match_bruteforce () =
  let make shape n =
    match shape with
    | Workloads.Formulas.Chain -> Workloads.Shapes.chain n
    | Workloads.Formulas.Cycle -> Workloads.Shapes.cycle n
    | Workloads.Formulas.Star -> Workloads.Shapes.star (n - 1)
    | Workloads.Formulas.Clique -> Workloads.Shapes.clique n
  in
  List.iter
    (fun shape ->
      List.iter
        (fun n ->
          let g = make shape n in
          check_int
            (Printf.sprintf "%s %d csg" (Workloads.Formulas.shape_name shape) n)
            (Workloads.Formulas.csg shape n)
            (Hypergraph.Csg_enum.count_connected_subgraphs g);
          check_int
            (Printf.sprintf "%s %d ccp" (Workloads.Formulas.shape_name shape) n)
            (Workloads.Formulas.ccp shape n)
            (Hypergraph.Csg_enum.count_csg_cmp_pairs g))
        [ 3; 4; 5; 6; 7 ])
    Workloads.Formulas.[ Chain; Cycle; Star; Clique ]

let test_formulas_validation () =
  check "cycle n=2 rejected" true
    (try ignore (Workloads.Formulas.csg Workloads.Formulas.Cycle 2); false
     with Invalid_argument _ -> true);
  check_int "star n=1 ccp" 0 (Workloads.Formulas.ccp Workloads.Formulas.Star 1)

(* ---------- tpch ---------- *)

let test_tpch_queries () =
  List.iter
    (fun name ->
      let g = Workloads.Tpch.query name in
      check (name ^ " connected") true
        (Hypergraph.Connectivity.is_connected_graph g);
      check_int
        (name ^ " rel count")
        (List.length (Workloads.Tpch.tables_of_query name))
        (G.num_nodes g);
      (* every query optimizes to a full plan *)
      check (name ^ " has plan") true
        ((Core.Optimizer.run Core.Optimizer.Dphyp g).plan <> None))
    Workloads.Tpch.query_names

let test_tpch_cards () =
  check "lineitem largest" true
    (List.for_all
       (fun t -> Workloads.Tpch.card t <= Workloads.Tpch.card Workloads.Tpch.Lineitem)
       Workloads.Tpch.all_tables);
  Alcotest.(check (float 1e-9)) "sf scales orders" 3_000_000.0
    (Workloads.Tpch.card ~sf:2.0 Workloads.Tpch.Orders);
  Alcotest.(check (float 1e-9)) "nation fixed" 25.0
    (Workloads.Tpch.card ~sf:2.0 Workloads.Tpch.Nation);
  check "unknown query" true
    (try ignore (Workloads.Tpch.query "q99"); false
     with Invalid_argument _ -> true);
  (* below 1e-4 the supplier table scales under one row; at 1e303
     lineitem's cardinality overflows *)
  List.iter
    (fun sf ->
      check (Printf.sprintf "sf %g rejected" sf) true
        (try ignore (Workloads.Tpch.query ~sf "q5"); false
         with Invalid_argument _ -> true))
    [ 0.0; 1e-9; -1.0; nan; infinity; 1e303 ];
  check "sf 1e-4 accepted" true
    (Hypergraph.Graph.num_nodes (Workloads.Tpch.query ~sf:1e-4 "q5") = 6)

(* ---------- random generators ---------- *)

let test_random_graphs () =
  for seed = 0 to 14 do
    let g = Workloads.Random_graphs.simple ~seed ~n:8 ~extra_edges:4 () in
    check "simple connected" true (Hypergraph.Connectivity.is_connected_graph g);
    check "no hyperedges" true (not (G.has_hyperedges g));
    let h =
      Workloads.Random_graphs.hyper ~seed ~n:8 ~extra_edges:2 ~hyperedges:3
        ~max_hypernode:3 ()
    in
    check "hyper connected" true (Hypergraph.Connectivity.is_connected_graph h)
  done;
  (* determinism *)
  let g1 = Workloads.Random_graphs.simple ~seed:5 ~n:8 ~extra_edges:4 () in
  let g2 = Workloads.Random_graphs.simple ~seed:5 ~n:8 ~extra_edges:4 () in
  check_int "same edge count" (G.num_edges g1) (G.num_edges g2)

let test_random_trees () =
  let ops = Relalg.Operator.[ join; left_outer; left_semi; left_nest ] in
  for seed = 0 to 30 do
    let t = Workloads.Random_trees.random_tree ~seed ~n:7 ~ops in
    check "valid" true (Relalg.Optree.validate t = Ok ());
    check_int "leaves" 7 (Relalg.Optree.num_leaves t)
  done;
  check "n=1 rejected" true
    (try
       ignore (Workloads.Random_trees.random_tree ~seed:0 ~n:1 ~ops);
       false
     with Invalid_argument _ -> true)

let test_random_tree_pred_scoping () =
  (* predicates never reference tables consumed below them — exactly
     the property the executor needs *)
  let ops = Relalg.Operator.[ join; left_semi; left_anti; left_nest ] in
  for seed = 0 to 30 do
    let t = Workloads.Random_trees.random_tree ~seed ~n:6 ~ops in
    let rec visible = function
      | Relalg.Optree.Leaf l -> Ns.singleton l.Relalg.Optree.node
      | Relalg.Optree.Node n -> (
          let l = visible n.left and r = visible n.right in
          match n.op.Relalg.Operator.kind with
          | Relalg.Operator.Inner | Relalg.Operator.Left_outer
          | Relalg.Operator.Full_outer ->
              Ns.union l r
          | Relalg.Operator.Left_semi | Relalg.Operator.Left_anti
          | Relalg.Operator.Left_nest ->
              l)
    in
    let rec ok = function
      | Relalg.Optree.Leaf _ -> true
      | Relalg.Optree.Node n ->
          Ns.subset
            (Relalg.Predicate.free_tables n.pred)
            (Ns.union (visible n.left) (visible n.right))
          && ok n.left && ok n.right
    in
    check (Printf.sprintf "seed %d scoped" seed) true (ok t)
  done

let () =
  Alcotest.run "workloads"
    [
      ( "shapes",
        [
          Alcotest.test_case "edge counts" `Quick test_shapes_edge_counts;
          Alcotest.test_case "validation" `Quick test_shapes_validation;
          Alcotest.test_case "deterministic" `Quick test_shapes_deterministic;
          Alcotest.test_case "connected" `Quick test_shapes_connected;
        ] );
      ( "splits",
        [
          Alcotest.test_case "family lengths" `Quick test_family_lengths;
          Alcotest.test_case "structure" `Quick test_family_structure;
          Alcotest.test_case "split_edge" `Quick test_split_edge;
          Alcotest.test_case "search space grows" `Quick
            test_family_search_space_grows;
        ] );
      ( "noninner",
        [
          Alcotest.test_case "trees valid" `Quick test_noninner_trees_valid;
          Alcotest.test_case "operator counts" `Quick test_noninner_op_counts;
          Alcotest.test_case "bounds" `Quick test_noninner_bounds;
          Alcotest.test_case "catalog" `Quick test_catalog_of;
        ] );
      ( "formulas",
        [
          Alcotest.test_case "match brute force" `Quick
            test_formulas_match_bruteforce;
          Alcotest.test_case "validation" `Quick test_formulas_validation;
        ] );
      ( "tpch",
        [
          Alcotest.test_case "queries optimize" `Quick test_tpch_queries;
          Alcotest.test_case "cardinalities" `Quick test_tpch_cards;
        ] );
      ( "random",
        [
          Alcotest.test_case "graphs" `Quick test_random_graphs;
          Alcotest.test_case "trees" `Quick test_random_trees;
          Alcotest.test_case "pred scoping" `Quick test_random_tree_pred_scoping;
        ] );
    ]
