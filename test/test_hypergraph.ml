(* Tests for hyperedges, hypergraphs, neighborhoods (the paper's §2.3
   worked examples), connectivity (Definition 3) and the brute-force
   csg/ccp enumerator against the closed forms of Moerkotte & Neumann
   (VLDB 2006) for chain, cycle, star and clique. *)

module Ns = Nodeset.Node_set
module He = Hypergraph.Hyperedge
module G = Hypergraph.Graph
module Conn = Hypergraph.Connectivity
module Csg = Hypergraph.Csg_enum

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ns = Ns.of_list

(* The accessors take a set's simple neighborhood; these tests carry
   none, so they compute it. *)
let neighborhood g s x = G.neighborhood g s (G.simple_neighborhood g s) x

let connects g s1 s2 = G.connects g s1 (G.simple_neighborhood g s1) s2

(* The paper's Figure 2 hypergraph: R1..R6 are nodes 0..5. *)
let fig2 () =
  let simple id a b = He.simple ~id a b in
  G.make
    (Array.init 6 (fun i -> G.base_rel (Printf.sprintf "R%d" (i + 1))))
    [|
      simple 0 0 1; (* R1-R2 *)
      simple 1 1 2; (* R2-R3 *)
      simple 2 3 4; (* R4-R5 *)
      simple 3 4 5; (* R5-R6 *)
      He.make ~id:4 (ns [ 0; 1; 2 ]) (ns [ 3; 4; 5 ]);
    |]

(* ---------- hyperedge ---------- *)

let test_edge_make_validation () =
  Alcotest.check_raises "empty u"
    (Invalid_argument "Hyperedge.make: hypernodes u and v must be non-empty")
    (fun () -> ignore (He.make ~id:0 Ns.empty (ns [ 1 ])));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Hyperedge.make: u, v, w must be pairwise disjoint")
    (fun () -> ignore (He.make ~id:0 (ns [ 0; 1 ]) (ns [ 1; 2 ])));
  Alcotest.check_raises "bad sel"
    (Invalid_argument "Hyperedge.make: selectivity must be in (0,1]")
    (fun () -> ignore (He.make ~sel:0.0 ~id:0 (ns [ 0 ]) (ns [ 1 ])))

let test_edge_classification () =
  let s = He.simple ~id:0 0 1 in
  check "simple is simple" true (He.is_simple s);
  check "simple is plain" true (He.is_plain s);
  let h = He.make ~id:1 (ns [ 0; 1 ]) (ns [ 2 ]) in
  check "hyper not simple" false (He.is_simple h);
  check "hyper plain" true (He.is_plain h);
  let gen = He.make ~id:2 ~w:(ns [ 3 ]) (ns [ 0 ]) (ns [ 2 ]) in
  check "generalized not plain" false (He.is_plain gen);
  Alcotest.(check (list int)) "covers" [ 0; 2; 3 ] (Ns.to_list (He.covers gen))

let test_edge_connects () =
  let e = He.make ~id:0 (ns [ 0; 1 ]) (ns [ 3 ]) in
  check "forward" true (He.connects e (ns [ 0; 1; 2 ]) (ns [ 3; 4 ]));
  check "backward" true (He.connects e (ns [ 3; 4 ]) (ns [ 0; 1; 2 ]));
  check "u split fails" false (He.connects e (ns [ 0 ]) (ns [ 1; 3 ]));
  check "orient forward" true
    (He.orient e (ns [ 0; 1 ]) (ns [ 3 ]) = Some He.Forward);
  check "orient backward" true
    (He.orient e (ns [ 3 ]) (ns [ 0; 1 ]) = Some He.Backward);
  check "orient none" true (He.orient e (ns [ 0 ]) (ns [ 3 ]) = None)

let test_edge_connects_generalized () =
  (* (u={0}, v={2}, w={1}): w members may sit on either side *)
  let e = He.make ~id:0 ~w:(ns [ 1 ]) (ns [ 0 ]) (ns [ 2 ]) in
  check "w on left" true (He.connects e (ns [ 0; 1 ]) (ns [ 2 ]));
  check "w on right" true (He.connects e (ns [ 0 ]) (ns [ 1; 2 ]));
  check "w absent fails" false (He.connects e (ns [ 0 ]) (ns [ 2 ]));
  check "w absent fails backward" false (He.connects e (ns [ 2 ]) (ns [ 0 ]))

(* ---------- graph construction ---------- *)

let test_graph_validation () =
  Alcotest.check_raises "edge id mismatch"
    (Invalid_argument "Hypergraph.make: edge at index 0 has id 3") (fun () ->
      ignore (G.make [| G.base_rel "A"; G.base_rel "B" |] [| He.simple ~id:3 0 1 |]));
  Alcotest.check_raises "no relations"
    (Invalid_argument "Hypergraph.make: no relations") (fun () ->
      ignore (G.make [||] [||]))

let test_graph_accessors () =
  let g = fig2 () in
  check_int "nodes" 6 (G.num_nodes g);
  check_int "edges" 5 (G.num_edges g);
  check "has hyperedges" true (G.has_hyperedges g);
  check_int "complex count" 1 (List.length (G.complex_edges g));
  Alcotest.(check (list int)) "simple neighbors of R2(1)" [ 0; 2 ]
    (Ns.to_list (G.simple_neighbors g 1));
  Alcotest.(check string) "relation name" "R1" (G.relation g 0).G.name

(* ---------- neighborhood: the paper's worked examples ---------- *)

let test_neighborhood_paper_example () =
  let g = fig2 () in
  (* §2.3: with X = S = {R1,R2,R3} (nodes {0,1,2}),
     N(S,X) = {R4} = node 3 — only the canonical representative. *)
  let s = ns [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "N({R1,R2,R3})" [ 3 ]
    (Ns.to_list (neighborhood g s s));
  (* E♮(S,X) = {{R4,R5,R6}}: excluding any one of its members leaves
     no eligible hypernode *)
  List.iter
    (fun v ->
      Alcotest.(check (list int))
        (Printf.sprintf "N({R1,R2,R3}, X+R%d)" (v + 1))
        []
        (Ns.to_list (neighborhood g s (Ns.add v s))))
    [ 3; 4; 5 ]

let test_neighborhood_simple_edges () =
  let g = fig2 () in
  (* neighborhood of {R5}=node 4 with nothing excluded: {R4, R6} *)
  Alcotest.(check (list int)) "N({R5})" [ 3; 5 ]
    (Ns.to_list (neighborhood g (ns [ 4 ]) Ns.empty));
  (* with node 3 excluded: {R6} *)
  Alcotest.(check (list int)) "N({R5},X={R4})" [ 5 ]
    (Ns.to_list (neighborhood g (ns [ 4 ]) (ns [ 3 ])))

let test_neighborhood_exclusion_of_hypernode () =
  let g = fig2 () in
  (* excluding any member of {R4,R5,R6} hides the hyperedge *)
  let s = ns [ 0; 1; 2 ] in
  check "excluded member blocks hypernode" true
    (Ns.is_empty (neighborhood g s (Ns.union s (ns [ 4 ]))))

let test_neighborhood_subsumption () =
  (* two complex edges where one candidate subsumes another: the
     subsumed (larger) hypernode contributes no representative *)
  let g =
    G.make
      (Array.init 5 (fun i -> G.base_rel (Printf.sprintf "T%d" i)))
      [|
        He.make ~id:0 (ns [ 0 ]) (ns [ 2; 3; 4 ]);
        He.make ~id:1 (ns [ 0; 1 ]) (ns [ 3; 4 ]);
      |]
  in
  (* from {0,1}: candidates {2,3,4} (edge0) and {3,4} (edge1);
     {3,4} ⊂ {2,3,4} so only min{3,4}=3 enters the neighborhood *)
  Alcotest.(check (list int)) "subsumed dropped" [ 3 ]
    (Ns.to_list (neighborhood g (ns [ 0; 1 ]) Ns.empty))

let test_neighborhood_generalized () =
  (* (u={0}, v={2}, w={1}): from S={0}, the dynamic hypernode is
     v ∪ (w \ S) = {1,2}, represented by 1 *)
  let g =
    G.make
      (Array.init 3 (fun i -> G.base_rel (Printf.sprintf "T%d" i)))
      [| He.make ~id:0 ~w:(ns [ 1 ]) (ns [ 0 ]) (ns [ 2 ]) |]
  in
  Alcotest.(check (list int)) "dynamic hypernode rep" [ 1 ]
    (Ns.to_list (neighborhood g (ns [ 0 ]) Ns.empty));
  (* from S={0,1}: w is inside S, hypernode is {2} *)
  Alcotest.(check (list int)) "w inside S" [ 2 ]
    (Ns.to_list (neighborhood g (ns [ 0; 1 ]) Ns.empty))

(* ---------- connecting edges ---------- *)

let test_connecting_edges () =
  let g = fig2 () in
  let edges = G.connecting_edges g (ns [ 0; 1; 2 ]) (ns [ 3; 4; 5 ]) in
  check_int "one connecting edge" 1 (List.length edges);
  (match edges with
  | [ (e, He.Forward) ] -> check_int "the hyperedge" 4 e.He.id
  | _ -> Alcotest.fail "expected forward hyperedge");
  check "no edge R1-R4" false (connects g (ns [ 0 ]) (ns [ 3 ]));
  check "simple edge backward" true
    (match G.connecting_edges g (ns [ 1 ]) (ns [ 0 ]) with
    | [ (_, He.Backward) ] -> true
    | _ -> false)

(* ---------- connectivity (Definition 3) ---------- *)

let test_connectivity_paper_subtlety () =
  (* With a single edge ({a},{b,c}) the set {b,c} is NOT connected:
     the induced subgraph over {b,c} has no edge. *)
  let g =
    G.make
      (Array.init 3 (fun i -> G.base_rel (Printf.sprintf "T%d" i)))
      [| He.make ~id:0 (ns [ 0 ]) (ns [ 1; 2 ]) |]
  in
  let c = Conn.make_cache g in
  check "{b,c} not connected" false (Conn.is_connected c (ns [ 1; 2 ]));
  (* Definition 3 also rejects the full set: the partition must put
     {b,c} on one side, and that side is itself disconnected *)
  check "{a,b,c} not connected either" false
    (Conn.is_connected c (ns [ 0; 1; 2 ]));
  check "{a,b} not connected" false (Conn.is_connected c (ns [ 0; 1 ]));
  check "singleton connected" true (Conn.is_connected c (ns [ 2 ]));
  check "empty not connected" false (Conn.is_connected c Ns.empty)

let test_connectivity_chain () =
  let g = Workloads.Shapes.chain 5 in
  let c = Conn.make_cache g in
  check "interval connected" true (Conn.is_connected c (ns [ 1; 2; 3 ]));
  check "gap disconnected" false (Conn.is_connected c (ns [ 0; 2 ]));
  check "whole chain" true (Conn.is_connected_graph g)

let test_components_and_ensure_connected () =
  let g =
    G.make
      (Array.init 4 (fun i -> G.base_rel (Printf.sprintf "T%d" i)))
      [| He.simple ~id:0 0 1; He.simple ~id:1 2 3 |]
  in
  check_int "two components" 2 (List.length (G.components g));
  let g' = G.ensure_connected g in
  check_int "one component after" 1 (List.length (G.components g'));
  check_int "one extra edge" 3 (G.num_edges g');
  check "now connected (Def 3)" true (Conn.is_connected_graph g');
  (* already-connected graphs are untouched *)
  let g2 = fig2 () in
  check "no-op when connected" true (G.ensure_connected g2 == g2)

(* ---------- csg / ccp counts: closed forms ---------- *)

(* Closed forms for simple graphs (Moerkotte & Neumann, VLDB 2006):
   chain:  #csg = n(n+1)/2          #ccp = (n³ − n)/6
   star:   #csg = 2^(n−1) + n − 1   #ccp = (n−1) · 2^(n−2)
   clique: #csg = 2^n − 1           #ccp = (3^n − 2^(n+1) + 1)/2
   (star counts use n = total relations, hub included) *)

let pow b e = int_of_float (float_of_int b ** float_of_int e)

let test_counts_chain () =
  List.iter
    (fun n ->
      let g = Workloads.Shapes.chain n in
      check_int
        (Printf.sprintf "chain %d csg" n)
        (n * (n + 1) / 2)
        (Csg.count_connected_subgraphs g);
      check_int
        (Printf.sprintf "chain %d ccp" n)
        (((n * n * n) - n) / 6)
        (Csg.count_csg_cmp_pairs g))
    [ 2; 3; 4; 5; 6 ]

let test_counts_star () =
  List.iter
    (fun sats ->
      let n = sats + 1 in
      let g = Workloads.Shapes.star sats in
      check_int
        (Printf.sprintf "star %d csg" sats)
        (pow 2 (n - 1) + n - 1)
        (Csg.count_connected_subgraphs g);
      check_int
        (Printf.sprintf "star %d ccp" sats)
        ((n - 1) * pow 2 (n - 2))
        (Csg.count_csg_cmp_pairs g))
    [ 2; 3; 4; 5 ]

let test_counts_clique () =
  List.iter
    (fun n ->
      let g = Workloads.Shapes.clique n in
      check_int
        (Printf.sprintf "clique %d csg" n)
        (pow 2 n - 1)
        (Csg.count_connected_subgraphs g);
      check_int
        (Printf.sprintf "clique %d ccp" n)
        ((pow 3 n - pow 2 (n + 1) + 1) / 2)
        (Csg.count_csg_cmp_pairs g))
    [ 2; 3; 4; 5 ]

let test_join_tree_counts () =
  (* chains: 2^(n-1) * Catalan(n-1); cliques: (2n-2)!/(n-1)! *)
  let catalan n =
    let rec binom n k = if k = 0 then 1 else binom (n - 1) (k - 1) * n / k in
    binom (2 * n) n / (n + 1)
  in
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "chain %d trees" n)
        (pow 2 (n - 1) * catalan (n - 1))
        (Csg.count_join_trees (Workloads.Shapes.chain n)))
    [ 2; 3; 4; 5; 6 ];
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "clique %d trees" n)
        (fact (2 * n - 2) / fact (n - 1))
        (Csg.count_join_trees (Workloads.Shapes.clique n)))
    [ 2; 3; 4; 5 ];
  (* hyperedges restrict: the Fig. 2 graph has far fewer trees than
     the same 6 relations in a clique *)
  check "fig2 restricted" true
    (Csg.count_join_trees (fig2 ())
    < Csg.count_join_trees (Workloads.Shapes.clique 6))

let test_counts_fig2 () =
  (* the paper's own example graph has exactly 9 csg-cmp-pairs
     (Figure 3 trace) *)
  check_int "fig2 ccp" 9 (Csg.count_csg_cmp_pairs (fig2 ()))

(* ---------- indexed fast paths vs. naive references ---------- *)

(* Verbatim re-implementations of the pre-index versions of candidate
   generation, E♮ minimization, connects and connecting_edges: scan
   every edge, list-based subsumption.  The qcheck properties below
   assert the indexed, arena-based implementations in Graph agree with
   them exactly on random hypergraphs mixing simple, complex and
   generalized w-edges. *)

let naive_candidates g s x =
  let sx = Ns.union s x in
  let cands = ref [] in
  let consider side_in side_out w =
    if Ns.subset side_in s then begin
      let cand = Ns.union side_out (Ns.diff w s) in
      if (not (Ns.is_empty cand)) && Ns.disjoint cand sx then
        cands := cand :: !cands
    end
  in
  List.iter
    (fun (e : He.t) ->
      consider e.u e.v e.w;
      consider e.v e.u e.w)
    (G.complex_edges g);
  !cands

let naive_simple g s x =
  let simple =
    Ns.fold (fun v acc -> Ns.union (G.simple_neighbors g v) acc) s Ns.empty
  in
  Ns.diff simple (Ns.union s x)

let naive_keep cands simple c =
  Ns.disjoint c simple
  && not
       (List.exists
          (fun c' -> (not (Ns.equal c c')) && Ns.strict_subset c' c)
          cands)

let naive_neighborhood g s x =
  let simple = naive_simple g s x in
  let cands = naive_candidates g s x in
  let nb = ref simple in
  List.iter
    (fun c -> if naive_keep cands simple c then nb := Ns.add (Ns.min_elt c) !nb)
    cands;
  !nb

let naive_connects g s1 s2 =
  Array.exists (fun e -> He.connects e s1 s2) (G.edges g)

let naive_connecting_edges g s1 s2 =
  Array.fold_left
    (fun acc e ->
      match He.orient e s1 s2 with Some o -> (e, o) :: acc | None -> acc)
    [] (G.edges g)
  |> List.rev

(* Random hypergraphs: a (partial) spine of simple edges plus a few
   complex and generalized edges, 3–10 nodes. *)
let random_hypergraph rng =
  let module R = Random.State in
  let n = 3 + R.int rng 8 in
  let rand_subset ?(avoid = Ns.empty) max_card =
    let s = ref Ns.empty in
    for _ = 1 to 1 + R.int rng max_card do
      let v = R.int rng n in
      if not (Ns.mem v avoid) then s := Ns.add v !s
    done;
    !s
  in
  let edges = ref [] in
  let nid = ref 0 in
  let push mk =
    edges := mk ~id:!nid :: !edges;
    incr nid
  in
  for i = 0 to n - 2 do
    if R.int rng 4 > 0 then push (fun ~id -> He.simple ~id i (i + 1))
  done;
  for _ = 1 to 1 + R.int rng 4 do
    let u = rand_subset 3 in
    let v = rand_subset ~avoid:u 3 in
    let w =
      if R.bool rng then rand_subset ~avoid:(Ns.union u v) 2 else Ns.empty
    in
    if (not (Ns.is_empty u)) && not (Ns.is_empty v) then
      push (fun ~id -> He.make ~id ~w u v)
  done;
  if !edges = [] then push (fun ~id -> He.simple ~id 0 1);
  G.make
    (Array.init n (fun i -> G.base_rel (Printf.sprintf "T%d" i)))
    (Array.of_list (List.rev !edges))

let random_set rng n =
  let s = ref Ns.empty in
  for v = 0 to n - 1 do
    if Random.State.bool rng then s := Ns.add v !s
  done;
  !s

let prop_neighborhood_agrees =
  QCheck.Test.make ~name:"indexed neighborhood = naive" ~count:500
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = random_hypergraph rng in
      let n = G.num_nodes g in
      let s = random_set rng n in
      let s = if Ns.is_empty s then Ns.singleton (Random.State.int rng n) else s in
      let x = random_set rng n in
      Ns.equal (neighborhood g s x) (naive_neighborhood g s x))

let prop_connects_agrees =
  QCheck.Test.make ~name:"indexed connects/connecting_edges = naive"
    ~count:500 QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed + 1_000_000 |] in
      let g = random_hypergraph rng in
      let n = G.num_nodes g in
      let s1 = random_set rng n in
      let s1 =
        if Ns.is_empty s1 then Ns.singleton (Random.State.int rng n) else s1
      in
      let s2 = Ns.diff (random_set rng n) s1 in
      let s2 =
        if Ns.is_empty s2 then Ns.diff (G.all_nodes g) s1 else s2
      in
      if Ns.is_empty s2 then true (* s1 = all nodes: nothing to test *)
      else
        let same_edges =
          List.equal
            (fun ((e1 : He.t), o1) ((e2 : He.t), o2) ->
              e1.He.id = e2.He.id && o1 = o2)
            (G.connecting_edges g s1 s2)
            (naive_connecting_edges g s1 s2)
        in
        connects g s1 s2 = naive_connects g s1 s2 && same_edges)

let test_components_long_chain () =
  (* 40 isolated relations glue into a chain of 39 cross-product
     edges; re-running components on the glued graph walks that long
     union chain through the path-halving find *)
  let n = 40 in
  let g =
    G.make (Array.init n (fun i -> G.base_rel (Printf.sprintf "T%d" i))) [||]
  in
  check_int "n isolated components" n (List.length (G.components g));
  let g' = G.ensure_connected g in
  check_int "glued to one component" 1 (List.length (G.components g'));
  check_int "n-1 glue edges" (n - 1) (G.num_edges g');
  (* a maximal-length simple chain for good measure *)
  let chain = Workloads.Shapes.chain 60 in
  (match G.components chain with
  | [ c ] -> check_int "chain component covers all" 60 (Ns.cardinal c)
  | l -> Alcotest.failf "expected one component, got %d" (List.length l))

(* ---------- serialization ---------- *)

let graphs_equal g1 g2 =
  G.num_nodes g1 = G.num_nodes g2
  && G.num_edges g1 = G.num_edges g2
  && List.for_all
       (fun i ->
         let r1 = G.relation g1 i and r2 = G.relation g2 i in
         r1.G.name = r2.G.name
         && r1.G.card = r2.G.card
         && Ns.equal r1.G.free r2.G.free)
       (List.init (G.num_nodes g1) Fun.id)
  && List.for_all2
       (fun (e1 : He.t) (e2 : He.t) ->
         Ns.equal e1.u e2.u && Ns.equal e1.v e2.v && Ns.equal e1.w e2.w
         && Relalg.Operator.equal e1.op e2.op
         && Float.abs (e1.sel -. e2.sel) < 1e-9)
       (Array.to_list (G.edges g1))
       (Array.to_list (G.edges g2))

let test_serialize_roundtrip () =
  let cases =
    [ fig2 (); Workloads.Shapes.cycle 7; Workloads.Shapes.star 5 ]
    @ Workloads.Splits.star_based 6
    @ [
        G.make
          [|
            G.base_rel ~card:10.0 "A";
            G.base_rel ~card:20.0 ~free:(ns [ 0 ]) "f";
            G.base_rel "C";
          |]
          [|
            He.make ~op:Relalg.Operator.d_join ~sel:0.25 ~id:0 (ns [ 0 ])
              (ns [ 1 ]);
            He.make ~w:(ns [ 1 ]) ~op:Relalg.Operator.left_anti ~sel:0.5 ~id:1
              (ns [ 0 ]) (ns [ 2 ]);
          |];
      ]
  in
  List.iteri
    (fun i g ->
      match Hypergraph.Serialize.of_string (Hypergraph.Serialize.to_string g) with
      | Ok g' ->
          check (Printf.sprintf "case %d roundtrips" i) true (graphs_equal g g')
      | Error m -> Alcotest.failf "case %d: %s" i m)
    cases

let test_serialize_optimizes_same () =
  (* a deserialized graph yields the same optimum (predicate bodies
     are synthetic but costing only uses selectivities) *)
  let g = Workloads.Shapes.cycle 7 in
  match Hypergraph.Serialize.of_string (Hypergraph.Serialize.to_string g) with
  | Error m -> Alcotest.fail m
  | Ok g' ->
      let c g =
        match (Core.Optimizer.run Core.Optimizer.Dphyp g).plan with
        | Some p -> p.Plans.Plan.cost
        | None -> nan
      in
      Alcotest.(check (float 1e-6)) "same optimum" (c g) (c g')

let test_serialize_errors () =
  let err s =
    match Hypergraph.Serialize.of_string s with Error _ -> true | Ok _ -> false
  in
  check "bad op" true (err "rel A\nrel B\nedge u=0 v=1 op=zig");
  check "bad index" true (err "rel A\nedge u=0 v=zz");
  check "empty u" true (err "rel A\nrel B\nedge v=1");
  check "unknown keyword" true (err "relation A");
  check "overlap rejected" true (err "rel A\nrel B\nedge u=0 v=0");
  check "infinite card rejected" true (err "rel A card=inf\nrel B\nedge u=0 v=1");
  check "overflowing card rejected" true
    (err "rel A card=1e400\nrel B\nedge u=0 v=1");
  check "comments and blanks ok" false (err "# hi\n\nrel A\nrel B\nedge u=0 v=1")

(* The Printf writer [Serialize.to_string] replaced, kept as the
   reference its bytes must match: the plan cache's exact keys, the
   benchmark's graph texts and its digests all read these bytes. *)
let printf_to_string g =
  let set_to_string s =
    String.concat "," (List.map string_of_int (Ns.to_list s))
  in
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "# %d relations, %d edges\n" (G.num_nodes g) (G.num_edges g);
  for i = 0 to G.num_nodes g - 1 do
    let r = G.relation g i in
    pr "rel %s card=%.17g" r.G.name r.G.card;
    if not (Ns.is_empty r.G.free) then
      pr " free=%s" (set_to_string r.G.free);
    pr "\n"
  done;
  Array.iter
    (fun (e : He.t) ->
      pr "edge u=%s v=%s" (set_to_string e.u) (set_to_string e.v);
      if not (Ns.is_empty e.w) then pr " w=%s" (set_to_string e.w);
      pr " op=%s sel=%.17g\n" (Relalg.Operator.symbol e.op) e.sel)
    (G.edges g);
  Buffer.contents buf

(* Random graphs for the writer: up to 80 relations (sets past one
   machine word included), free sets, w hyperedges, every operator in
   both variants, and statistics at the edges of the float range:
   1e-300, 1e300, subnormals, integers, thirds and random values. *)
let writer_graph seed =
  let rng = Random.State.make [| seed; 4242 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let n =
    if seed mod 5 = 0 then 63 + Random.State.int rng 18
    else 1 + Random.State.int rng 12
  in
  let subset p exclude =
    let s = ref Ns.empty in
    for v = 0 to n - 1 do
      if (not (Ns.mem v exclude)) && Random.State.float rng 1.0 < p then
        s := Ns.add v !s
    done;
    !s
  in
  let cards =
    [| 1e-300; 1e300; 5e-324; 2.2e-310; 1.; 42.; 1000.; 123456789.;
       9007199254740992.; 1. /. 3.; 0.1 |]
  and sels = [| 1.; 5e-324; 1e-300; 4.9e-310; 0.5; 0.1; 1. /. 3.; 1e-6 |] in
  let stat pool =
    if Random.State.bool rng then pick pool
    else
      (Float.of_int (1 + Random.State.int rng 1_000_000)
      *. Random.State.float rng 1.0)
      +. 1e-9
  in
  let rels =
    Array.init n (fun i ->
        let free =
          if Random.State.int rng 4 = 0 then subset 0.2 (Ns.singleton i)
          else Ns.empty
        in
        G.base_rel ~free ~card:(stat cards) (Printf.sprintf "R%d" i))
  in
  let edges =
    if n < 2 then [||]
    else
      Array.init (Random.State.int rng (2 * n)) (fun id ->
          let a = Random.State.int rng n in
          let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
          let u = Ns.add a (subset 0.1 (Ns.singleton b)) in
          let v = Ns.add b (subset 0.1 u) in
          let w =
            if Random.State.int rng 3 = 0 then subset 0.1 (Ns.union u v)
            else Ns.empty
          in
          let kind = pick (Array.of_list Relalg.Operator.all_kinds) in
          let dependent =
            kind <> Relalg.Operator.Full_outer && Random.State.bool rng
          in
          let sel = Float.min 1. (stat sels) in
          He.make ~w ~op:(Relalg.Operator.make ~dependent kind) ~sel ~id u v)
  in
  G.make rels edges

let prop_writer_matches_printf =
  QCheck.Test.make ~name:"to_string = the Printf writer, byte for byte"
    ~count:300 QCheck.small_nat (fun seed ->
      let g = writer_graph seed in
      let s = Hypergraph.Serialize.to_string g in
      String.equal s (printf_to_string g)
      || QCheck.Test.fail_reportf "seed %d:@.%s@.Printf:@.%s" seed s
           (printf_to_string g))

(* ---------- DOT export ---------- *)

let test_dot () =
  let dot = Hypergraph.Dot.to_dot (fig2 ()) in
  check "has graph header" true
    (String.length dot > 10 && String.sub dot 0 5 = "graph");
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "hyperedge box present" true (contains "he4" dot);
  check "all relations present" true (contains "R6" dot)

let test_dot_hostile_names () =
  let g =
    Hypergraph.Graph.make
      [|
        Hypergraph.Graph.base_rel ~card:10.0 "bad\"name";
        Hypergraph.Graph.base_rel ~card:20.0 "worse\\one\n";
      |]
      [| Hypergraph.Hyperedge.simple ~sel:0.5 ~id:0 0 1 |]
  in
  let dot = Hypergraph.Dot.to_dot g in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "quote escaped" true (contains "bad\\\"name" dot);
  check "backslash escaped" true (contains "worse\\\\one" dot);
  check "newline escaped" true (contains "\\n" dot);
  check "raw quoted name absent" true (not (contains "\"bad\"name\"" dot));
  (* the shared escaper leaves benign names untouched *)
  check "benign name unchanged" true
    (Hypergraph.Dot.escape_label "R0_ok" = "R0_ok")

(* ---------- table-sizing estimate vs. the O(k^3) probe ---------- *)

(* The estimator as it once stood in Csg_enum: c2 and c3 from O(k^3)
   [connects] probes over the members of [subset], then the same
   geometric extrapolation.  Kept as the reference the O(sum deg^2)
   neighbor-set count must reproduce exactly, on a whole graph and on
   a block's induced subgraph. *)
let reference_estimate ?subset g =
  let s = Option.value subset ~default:(G.all_nodes g) in
  let nodes = Array.of_list (Ns.to_list s) in
  let n = Array.length nodes in
  if n <= 2 then n + 1
  else if n > Ns.small_capacity then
    max 64 (min (1 lsl 21) (16 * (n + Array.length (G.edges g))))
  else begin
    let c2 = ref 0 and c3 = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let si = Ns.singleton nodes.(i) and sj = Ns.singleton nodes.(j) in
        if connects g si sj then begin
          incr c2;
          for k = j + 1 to n - 1 do
            let sij = Ns.union si sj and sk = Ns.singleton nodes.(k) in
            if connects g sij sk then incr c3
          done
        end
        else
          for k = j + 1 to n - 1 do
            let sk = Ns.singleton nodes.(k) in
            let sik = Ns.union si sk and sjk = Ns.union sj sk in
            if
              (connects g si sk && connects g sik sj)
              || (connects g sj sk && connects g sjk si)
            then incr c3
          done
      done
    done;
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

(* A random 19-62 node graph: simple, or hyper with extra three-node
   edges — complex [({a,b},{c})] and generalized [({a},{b},w={c})] —
   since only edges covering at most three nodes reach c3. *)
let random_wide_graph rng =
  let module R = Random.State in
  let n = 19 + R.int rng 44 in
  let seed = R.bits rng in
  let extra_edges = R.int rng (2 * n) in
  if R.bool rng then Workloads.Random_graphs.simple ~seed ~n ~extra_edges ()
  else
    let g =
      Workloads.Random_graphs.hyper ~seed ~n ~extra_edges
        ~hyperedges:(1 + R.int rng 8) ~max_hypernode:(2 + R.int rng 2) ()
    in
    let base = G.edges g in
    let m = Array.length base in
    let extra =
      List.init (R.int rng 12) (fun i ->
          let a = R.int rng n in
          let b = (a + 1 + R.int rng (n - 1)) mod n in
          let c = ref (R.int rng n) in
          while !c = a || !c = b do
            c := R.int rng n
          done;
          let id = m + i in
          if R.bool rng then He.make ~id (ns [ a; b ]) (Ns.singleton !c)
          else He.make ~id ~w:(Ns.singleton !c) (Ns.singleton a) (Ns.singleton b))
    in
    G.make
      (Array.init n (G.relation g))
      (Array.append base (Array.of_list extra))

(* A random connected block: grow from one node through edge covers
   until the target size is reached or nothing more is adjacent. *)
let random_block rng g =
  let module R = Random.State in
  let n = G.num_nodes g in
  let target = 3 + R.int rng (min 20 (n - 2)) in
  let block = ref (Ns.singleton (R.int rng n)) in
  let stop = ref false in
  while (not !stop) && Ns.cardinal !block < target do
    let frontier =
      Array.fold_left
        (fun acc (e : He.t) ->
          let c = He.covers e in
          if Ns.intersects c !block then Ns.union acc c else acc)
        Ns.empty (G.edges g)
    in
    match Ns.to_list (Ns.diff frontier !block) with
    | [] -> stop := true
    | vs -> block := Ns.add (List.nth vs (R.int rng (List.length vs))) !block
  done;
  !block

let prop_estimate_matches_reference =
  QCheck.Test.make ~name:"estimate = O(k^3) reference, graphs and blocks"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed + 2_000_000 |] in
      let g = random_wide_graph rng in
      let subset = random_block rng g in
      Csg.estimate_connected_subgraphs g = reference_estimate g
      && Csg.estimate_connected_subgraphs (G.induced g subset).G.sub
         = reference_estimate ~subset g)

let test_estimate_shapes () =
  List.iter
    (fun (name, g) ->
      check_int (name ^ " whole graph") (reference_estimate g)
        (Csg.estimate_connected_subgraphs g);
      let subset = Ns.range 0 9 in
      check_int (name ^ " block 0..9")
        (reference_estimate ~subset g)
        (Csg.estimate_connected_subgraphs (G.induced g subset).G.sub))
    [
      ("chain62", Workloads.Shapes.chain 62);
      ("cycle40", Workloads.Shapes.cycle 40);
      ("star40", Workloads.Shapes.star 39);
      ("clique24", Workloads.Shapes.clique 24);
      ("grid8x7", Workloads.Shapes.grid ~rows:8 ~cols:7 ());
      ("snowflake60", Workloads.Shapes.snowflake_n 60);
      ("snowflake100", Workloads.Shapes.snowflake_n 100);
    ]

let () =
  Alcotest.run "hypergraph"
    [
      ( "hyperedge",
        [
          Alcotest.test_case "validation" `Quick test_edge_make_validation;
          Alcotest.test_case "classification" `Quick test_edge_classification;
          Alcotest.test_case "connects/orient" `Quick test_edge_connects;
          Alcotest.test_case "generalized w" `Quick test_edge_connects_generalized;
        ] );
      ( "graph",
        [
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "accessors" `Quick test_graph_accessors;
          Alcotest.test_case "connecting edges" `Quick test_connecting_edges;
          Alcotest.test_case "components/ensure_connected" `Quick
            test_components_and_ensure_connected;
        ] );
      ( "neighborhood",
        [
          Alcotest.test_case "paper example" `Quick test_neighborhood_paper_example;
          Alcotest.test_case "simple edges" `Quick test_neighborhood_simple_edges;
          Alcotest.test_case "hypernode exclusion" `Quick
            test_neighborhood_exclusion_of_hypernode;
          Alcotest.test_case "subsumption" `Quick test_neighborhood_subsumption;
          Alcotest.test_case "generalized" `Quick test_neighborhood_generalized;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "Definition 3 subtlety" `Quick
            test_connectivity_paper_subtlety;
          Alcotest.test_case "chain" `Quick test_connectivity_chain;
        ] );
      ( "indexed-vs-naive",
        [
          QCheck_alcotest.to_alcotest prop_neighborhood_agrees;
          QCheck_alcotest.to_alcotest prop_connects_agrees;
          Alcotest.test_case "long glue-component chain" `Quick
            test_components_long_chain;
        ] );
      ( "csg_enum",
        [
          Alcotest.test_case "chain closed form" `Quick test_counts_chain;
          Alcotest.test_case "star closed form" `Quick test_counts_star;
          Alcotest.test_case "clique closed form" `Quick test_counts_clique;
          Alcotest.test_case "fig2 = 9" `Quick test_counts_fig2;
          Alcotest.test_case "join tree counts" `Quick test_join_tree_counts;
          Alcotest.test_case "estimate = reference on shapes" `Quick
            test_estimate_shapes;
          QCheck_alcotest.to_alcotest prop_estimate_matches_reference;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick test_dot;
          Alcotest.test_case "hostile names escaped" `Quick
            test_dot_hostile_names;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "same optimum" `Quick test_serialize_optimizes_same;
          Alcotest.test_case "errors" `Quick test_serialize_errors;
          QCheck_alcotest.to_alcotest prop_writer_matches_printf;
        ] );
    ]
