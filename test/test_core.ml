(* Tests for the enumeration algorithms.

   The two central theorems being checked:
   1. DPhyp emits exactly the csg-cmp-pairs of the hypergraph, each
      exactly once, in an order where sub-pairs precede super-pairs
      (Section 2.2's requirement for dynamic programming).
   2. All exact algorithms (DPhyp, DPsize, DPsub, DPccp, top-down
      memoization) agree on the optimal plan cost. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Opt = Core.Optimizer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ns = Ns.of_list

let canon pairs =
  List.sort_uniq compare
    (List.map (fun (a, b) -> (Ns.to_int a, Ns.to_int b)) pairs)

let cost_of (r : Opt.result) =
  match r.plan with Some p -> p.Plans.Plan.cost | None -> nan

let graphs_under_test () =
  let p = Workloads.Shapes.default_params in
  [
    ("chain4", Workloads.Shapes.chain ~p 4);
    ("chain7", Workloads.Shapes.chain ~p 7);
    ("cycle5", Workloads.Shapes.cycle ~p 5);
    ("cycle8", Workloads.Shapes.cycle ~p 8);
    ("star4", Workloads.Shapes.star ~p 4);
    ("star6", Workloads.Shapes.star ~p 6);
    ("clique5", Workloads.Shapes.clique ~p 5);
    ("grid2x3", Workloads.Shapes.grid ~p ~rows:2 ~cols:3 ());
  ]
  @ List.mapi
      (fun i g -> (Printf.sprintf "cycle8-split%d" i, g))
      (Workloads.Splits.cycle_based ~p 8)
  @ List.mapi
      (fun i g -> (Printf.sprintf "star6-split%d" i, g))
      (Workloads.Splits.star_based ~p 6)
  @ List.init 8 (fun seed ->
        ( Printf.sprintf "rand-hyper-%d" seed,
          Workloads.Random_graphs.hyper ~seed ~n:7 ~extra_edges:3 ~hyperedges:2
            ~max_hypernode:3 () ))

(* ---------- 1. emission exactness ---------- *)

let test_dphyp_emits_exactly_ccps () =
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      let brute = Hypergraph.Csg_enum.csg_cmp_pairs g in
      check_int (name ^ ": emission count = brute force")
        (List.length brute) (List.length trace);
      check (name ^ ": no duplicates") true
        (List.length (canon trace) = List.length trace);
      check (name ^ ": same set") true (canon trace = canon brute))
    (graphs_under_test ())

let test_dphyp_canonical_min_order () =
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      check (name ^ ": min(S1) < min(S2) for every emission") true
        (List.for_all (fun (s1, s2) -> Ns.min_elt s1 < Ns.min_elt s2) trace))
    (graphs_under_test ())

let test_dphyp_dp_order () =
  (* Before emitting (S1,S2), all (S1',S2') with S1'⊂S1, S2'⊂S2 must
     already be out; equivalently, every strict sub-pair of an emitted
     pair that IS a ccp appears earlier in the trace. *)
  List.iter
    (fun (name, g) ->
      let trace = Core.Dphyp.enumerate_ccps g in
      let seen = Hashtbl.create 256 in
      let ok = ref true in
      List.iter
        (fun (s1, s2) ->
          Hashtbl.iter
            (fun _ () -> ())
            seen;
          (* check no later pair is a strict sub-pair of an earlier one *)
          Hashtbl.iter
            (fun (t1, t2) () ->
              let t1 = Ns.unsafe_of_int t1 and t2 = Ns.unsafe_of_int t2 in
              if
                Ns.strict_subset s1 t1 && Ns.subset s2 t2
                || (Ns.subset s1 t1 && Ns.strict_subset s2 t2)
              then ok := false)
            seen;
          Hashtbl.replace seen (Ns.to_int s1, Ns.to_int s2) ())
        trace;
      check (name ^ ": subsets before supersets") true !ok)
    (graphs_under_test ())

(* ---------- 2. cross-algorithm agreement ---------- *)

let agree name g algos =
  let costs = List.map (fun a -> (a, cost_of (Opt.run a g))) algos in
  match costs with
  | [] -> ()
  | (_, c0) :: rest ->
      List.iter
        (fun (a, c) ->
          check
            (Printf.sprintf "%s: %s cost matches dphyp" name (Opt.name a))
            true
            (Float.abs (c -. c0) <= 1e-9 *. Float.max 1.0 (Float.abs c0)))
        rest

let test_all_algorithms_agree () =
  List.iter
    (fun (name, g) ->
      agree name g [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Topdown; Opt.Tdpart ];
      if not (G.has_hyperedges g) then agree name g [ Opt.Dphyp; Opt.Dpccp ])
    (graphs_under_test ())

let test_agreement_under_cmm () =
  let model = Costing.Cost_model.c_mm in
  List.iter
    (fun (name, g) ->
      let c1 = cost_of (Opt.run ~model Opt.Dphyp g) in
      let c2 = cost_of (Opt.run ~model Opt.Dpsub g) in
      check (name ^ ": cmm agreement") true
        (Float.abs (c1 -. c2) <= 1e-9 *. Float.max 1.0 c1))
    (graphs_under_test ())

let test_dpccp_matches_dphyp_trace () =
  List.iter
    (fun (name, g) ->
      if not (G.has_hyperedges g) then begin
        let t1 = canon (Core.Dphyp.enumerate_ccps g) in
        let t2 = canon (Core.Dpccp.enumerate_ccps g) in
        check (name ^ ": dpccp = dphyp pairs") true (t1 = t2)
      end)
    (graphs_under_test ())

let test_dpccp_rejects_hypergraphs () =
  let g = List.assoc "rand-hyper-0" (graphs_under_test ()) in
  Alcotest.check_raises "dpccp on hypergraph"
    (Invalid_argument "Dpccp: graph has hyperedges; use Dphyp") (fun () ->
      ignore (Core.Dpccp.solve g))

(* ---------- golden trace: the paper's Figure 2/3 example ---------- *)

let fig2 () =
  G.make
    (Array.init 6 (fun i -> G.base_rel (Printf.sprintf "R%d" (i + 1))))
    [|
      He.simple ~id:0 0 1;
      He.simple ~id:1 1 2;
      He.simple ~id:2 3 4;
      He.simple ~id:3 4 5;
      He.make ~id:4 (ns [ 0; 1; 2 ]) (ns [ 3; 4; 5 ]);
    |]

let test_fig3_trace_golden () =
  (* the nine csg-cmp-pairs of the paper's running example, in DPhyp
     emission order (regression-pinned; matches the Figure 3 walk:
     complements around R5/R4 first, then R2/R1, then the hyperedge
     pair joining the halves) *)
  let expected =
    [
      ([ 4 ], [ 5 ]);
      ([ 3 ], [ 4 ]);
      ([ 3 ], [ 4; 5 ]);
      ([ 3; 4 ], [ 5 ]);
      ([ 1 ], [ 2 ]);
      ([ 0 ], [ 1 ]);
      ([ 0 ], [ 1; 2 ]);
      ([ 0; 1 ], [ 2 ]);
      ([ 0; 1; 2 ], [ 3; 4; 5 ]);
    ]
  in
  let got =
    List.map
      (fun (a, b) -> (Ns.to_list a, Ns.to_list b))
      (Core.Dphyp.enumerate_ccps (fig2 ()))
  in
  Alcotest.(check (list (pair (list int) (list int)))) "figure 3 trace"
    expected got

(* ---------- counters ---------- *)

let test_counters_dphyp_tight () =
  (* on every graph, DPhyp's emitted ccp count equals the brute-force
     count, and its considered pairs exceed it only by the failed
     seed/extension candidates *)
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Dphyp g in
      let brute = Hypergraph.Csg_enum.count_csg_cmp_pairs g in
      check_int (name ^ ": ccp counter") brute
        r.counters.Core.Counters.ccp_emitted;
      check (name ^ ": considered >= emitted") true
        (r.counters.Core.Counters.pairs_considered
        >= r.counters.Core.Counters.ccp_emitted))
    (graphs_under_test ())

let test_counters_baselines_waste () =
  (* the paper's core observation: DPsize/DPsub examine far more
     candidate pairs than there are ccps on sparse graphs *)
  let g = Workloads.Shapes.chain 8 in
  let hyp = Opt.run Opt.Dphyp g in
  let size = Opt.run Opt.Dpsize g in
  let sub = Opt.run Opt.Dpsub g in
  let ccp = hyp.counters.Core.Counters.ccp_emitted in
  check "dpsize wastes" true
    (size.counters.Core.Counters.pairs_considered > 2 * ccp);
  check "dpsub wastes" true
    (sub.counters.Core.Counters.pairs_considered > 2 * ccp)

let test_dp_entries_is_csg_count () =
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Dphyp g in
      check_int
        (name ^ ": dp entries = connected subgraphs")
        (Hypergraph.Csg_enum.count_connected_subgraphs g)
        r.dp_entries)
    (graphs_under_test ())

(* ---------- plans are well-formed ---------- *)

let rec joins (p : Plans.Plan.t) =
  match p.tree with
  | Plans.Plan.Scan _ -> 0
  | Plans.Plan.Join j -> 1 + joins j.left + joins j.right

let test_plan_covers_all_relations () =
  List.iter
    (fun (name, g) ->
      match (Opt.run Opt.Dphyp g).plan with
      | Some p ->
          check (name ^ ": plan covers V") true
            (Ns.equal p.Plans.Plan.set (G.all_nodes g));
          check_int (name ^ ": n-1 joins") (G.num_nodes g - 1) (joins p)
      | None -> Alcotest.failf "%s: no plan" name)
    (graphs_under_test ())

let test_plans_structurally_valid () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun algo ->
          match (Opt.run algo g).plan with
          | Some p -> (
              match Plans.Plan_check.check g p with
              | [] -> ()
              | issues ->
                  Alcotest.failf "%s/%s: %s" name (Opt.name algo)
                    (String.concat "; "
                       (List.map Plans.Plan_check.issue_to_string issues)))
          | None -> Alcotest.failf "%s/%s: no plan" name (Opt.name algo))
        (Opt.Dphyp :: Opt.Dpsize :: Opt.Dpsub :: Opt.Goo :: Opt.Topdown
        :: Opt.Tdpart
        :: (if G.has_hyperedges g then [] else [ Opt.Dpccp ])))
    (graphs_under_test ())

let test_no_cross_products () =
  (* every join node of the optimal plan must apply at least one edge *)
  let rec no_cross (p : Plans.Plan.t) =
    match p.tree with
    | Plans.Plan.Scan _ -> true
    | Plans.Plan.Join j ->
        j.edge_ids <> [] && no_cross j.left && no_cross j.right
  in
  List.iter
    (fun (name, g) ->
      match (Opt.run Opt.Dphyp g).plan with
      | Some p -> check (name ^ ": no cross products") true (no_cross p)
      | None -> Alcotest.failf "%s: no plan" name)
    (graphs_under_test ())

let test_tdpart_beats_naive () =
  (* the point of partition search: near-ccp candidate counts where
     naive memoization tests exponentially many splits *)
  let g = Workloads.Shapes.chain 9 in
  let tdp = Opt.run Opt.Tdpart g in
  let naive = Opt.run Opt.Topdown g in
  check "tdpart considers far fewer pairs" true
    (tdp.counters.Core.Counters.pairs_considered * 5
    < naive.counters.Core.Counters.pairs_considered)

(* ---------- budget ---------- *)

let test_budget_zero () =
  (* a zero budget is legal and means "no pairs at all": the very
     first tick_pair must raise *)
  Alcotest.check_raises "budget 0 raises on first pair"
    Core.Counters.Budget_exhausted (fun () ->
      ignore (Opt.run ~budget:0 Opt.Dphyp (Workloads.Shapes.chain 4)))

let test_budget_exactly_sufficient () =
  (* the budget is inclusive: b pairs under ~budget:b must not raise,
     and the run is indistinguishable from the unbudgeted one *)
  List.iter
    (fun (name, g) ->
      let free = Opt.run Opt.Dphyp g in
      let p = free.counters.Core.Counters.pairs_considered in
      let capped = Opt.run ~budget:p Opt.Dphyp g in
      check_int (name ^ ": same pairs under exact budget") p
        capped.counters.Core.Counters.pairs_considered;
      check (name ^ ": same cost under exact budget") true
        (Float.equal (cost_of free) (cost_of capped));
      check (name ^ ": headroom fully spent")
        true
        (Core.Counters.remaining capped.counters = Some 0);
      (* one pair less must blow up *)
      if p > 0 then
        Alcotest.check_raises
          (name ^ ": budget p-1 raises")
          Core.Counters.Budget_exhausted
          (fun () -> ignore (Opt.run ~budget:(p - 1) Opt.Dphyp g)))
    [
      ("chain5", Workloads.Shapes.chain 5);
      ("cycle6", Workloads.Shapes.cycle 6);
      ("star5", Workloads.Shapes.star 5);
    ]

let test_reset_preserves_limit () =
  let c = Core.Counters.create ~budget:7 () in
  for _ = 1 to 5 do
    Core.Counters.tick_pair c
  done;
  check_int "spent before reset" 5 c.Core.Counters.pairs_considered;
  check "remaining before reset" true (Core.Counters.remaining c = Some 2);
  Core.Counters.reset c;
  check_int "zeroed" 0 c.Core.Counters.pairs_considered;
  check "budget survives reset" true (Core.Counters.budget c = Some 7);
  check "headroom restored" true (Core.Counters.remaining c = Some 7);
  (* the limit is still enforced after reset *)
  Alcotest.check_raises "still enforced" Core.Counters.Budget_exhausted
    (fun () ->
      for _ = 1 to 8 do
        Core.Counters.tick_pair c
      done);
  (* unlimited counters stay unlimited *)
  let u = Core.Counters.create () in
  Core.Counters.reset u;
  check "unlimited has no budget" true (Core.Counters.budget u = None);
  check "unlimited has no headroom figure" true
    (Core.Counters.remaining u = None)

let test_counters_pp_budget () =
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let unl = Format.asprintf "%a" Core.Counters.pp (Core.Counters.create ()) in
  check "pp says unlimited" true (contains unl "budget=unlimited");
  let c = Core.Counters.create ~budget:100 () in
  Core.Counters.tick_pair c;
  let s = Format.asprintf "%a" Core.Counters.pp c in
  check "pp prints the limit" true (contains s "budget=100");
  check "pp prints the headroom" true (contains s "remaining=99")

let test_null_sink_counters_identical () =
  (* observability must not perturb enumeration: a run observed by a
     span collector produces byte-identical counters, DP-table
     occupancy and plan cost to an un-observed run *)
  let snapshot (r : Opt.result) =
    ( r.counters.Core.Counters.pairs_considered,
      r.counters.Core.Counters.ccp_emitted,
      r.counters.Core.Counters.cost_calls,
      r.counters.Core.Counters.filter_rejected,
      r.counters.Core.Counters.neighborhood_calls,
      r.dp_entries,
      cost_of r )
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (algo, budget) ->
          let plain = Opt.run ?budget algo g in
          let obs = Obs.Span.create () in
          let traced = Opt.run ~obs ?budget algo g in
          check
            (Printf.sprintf "%s/%s: counters unperturbed by obs" name
               (Opt.name algo))
            true
            (snapshot plain = snapshot traced))
        [
          (Opt.Dphyp, None);
          (Opt.Idp { k = Core.Idp.default_k }, None);
          (Opt.Adaptive, None);
          (Opt.Adaptive, Some 50);
        ])
    [
      ("chain6", Workloads.Shapes.chain 6);
      ("cycle7", Workloads.Shapes.cycle 7);
      ("star6-split0", List.hd (Workloads.Splits.star_based 6));
    ]

(* ---------- edge cases ---------- *)

let test_disconnected_query_cross_products () =
  (* two components: §2.1's selectivity-1 glue edge makes the query
     optimizable, and the plan contains exactly one cross-product-ish
     join applying the glue edge *)
  let b = Hypergraph.Builder.create () in
  let a0 = Hypergraph.Builder.add_relation ~card:10.0 b "a0" in
  let a1 = Hypergraph.Builder.add_relation ~card:20.0 b "a1" in
  let b0 = Hypergraph.Builder.add_relation ~card:30.0 b "b0" in
  let b1 = Hypergraph.Builder.add_relation ~card:40.0 b "b1" in
  Hypergraph.Builder.add_predicate ~sel:0.1 b (Relalg.Predicate.eq_cols a0 "x" a1 "x");
  Hypergraph.Builder.add_predicate ~sel:0.1 b (Relalg.Predicate.eq_cols b0 "x" b1 "x");
  let g = Hypergraph.Builder.build b in
  check_int "glue edge added" 3 (G.num_edges g);
  List.iter
    (fun algo ->
      match (Opt.run algo g).plan with
      | Some p ->
          check
            (Core.Optimizer.name algo ^ " covers all")
            true
            (Ns.equal p.Plans.Plan.set (G.all_nodes g));
          Alcotest.(check (list string)) "structurally valid" []
            (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g p))
      | None -> Alcotest.failf "%s: no plan" (Core.Optimizer.name algo))
    Opt.[ Dphyp; Dpsize; Dpsub; Tdpart ];
  (* and all agree *)
  agree "disconnected" g [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Tdpart ]

let test_three_components () =
  let b = Hypergraph.Builder.create () in
  for i = 0 to 5 do
    ignore (Hypergraph.Builder.add_relation ~card:(float_of_int (10 * (i + 1))) b
              (Printf.sprintf "t%d" i))
  done;
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 0 "x" 1 "x");
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 2 "x" 3 "x");
  Hypergraph.Builder.add_predicate b (Relalg.Predicate.eq_cols 4 "x" 5 "x");
  let g = Hypergraph.Builder.build b in
  check "connected after glue" true (Hypergraph.Connectivity.is_connected_graph g);
  check "optimizes" true ((Opt.run Opt.Dphyp g).plan <> None)

let test_large_chain_near_node_limit () =
  (* high node indices: exercises the top bits of the native-int sets *)
  let g = Workloads.Shapes.chain 60 in
  match (Opt.run Opt.Dphyp g).plan with
  | Some p ->
      check "covers 60 relations" true (Ns.cardinal p.Plans.Plan.set = 60);
      check_int "59 joins" 59 (joins p)
  | None -> Alcotest.fail "no plan for chain-60"

let test_unit_cardinalities () =
  let g =
    G.make
      [| G.base_rel ~card:1.0 "a"; G.base_rel ~card:1.0 "b" |]
      [| He.simple ~sel:1.0 ~id:0 0 1 |]
  in
  match (Opt.run Opt.Dphyp g).plan with
  | Some p -> Alcotest.(check (float 1e-9)) "card floor" 1.0 p.Plans.Plan.card
  | None -> Alcotest.fail "no plan"

(* ---------- plan sampling ---------- *)

(* Random valid plans from the whole search space: each connected set
   splits along a random csg-cmp decomposition, with a random operator
   order among the valid candidates.  Exponential in the worst case, so
   only for small graphs; no sampled plan may beat the DP optimum,
   which checks the DP against the whole space rather than only
   against the other exact algorithms.  [None] when the graph admits
   no valid plan. *)
let random_plan ~seed g =
  let rng = Random.State.make [| 524287; seed |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let counters = Core.Counters.create () in
  let conn = Hypergraph.Connectivity.make_cache g in
  let rec build s =
    if Ns.is_singleton s then Some (Plans.Plan.scan g (Ns.min_elt s))
    else begin
      (* canonical partitions (min(s) on the left), random order *)
      let parts =
        Nodeset.Subset_enum.fold_nonempty (Ns.without_min s)
          (fun acc s2 ->
            let s1 = Ns.diff s s2 in
            if
              Hypergraph.Connectivity.is_connected conn s1
              && Hypergraph.Connectivity.is_connected conn s2
              && G.connects g s1 s2
            then (s1, s2) :: acc
            else acc)
          []
      in
      let rec try_parts = function
        | [] -> None
        | (s1, s2) :: rest -> (
            match (build s1, build s2) with
            | Some p1, Some p2 -> (
                match
                  Core.Emit.candidates ~model:Costing.Cost_model.c_out
                    ~counters g p1 p2
                with
                | [] -> try_parts rest
                | cands ->
                    Some
                      (List.nth cands (Random.State.int rng (List.length cands)))
                )
            | _ -> try_parts rest)
      in
      try_parts (shuffle parts)
    end
  in
  build (G.all_nodes g)

(* Costs of the successfully sampled plans, one attempt per seed. *)
let sample_costs ~seeds g =
  List.filter_map
    (fun seed ->
      Option.map (fun (p : Plans.Plan.t) -> p.cost) (random_plan ~seed g))
    seeds

let test_sampled_plans_never_beat_optimum () =
  List.iter
    (fun (name, g) ->
      if G.num_nodes g <= 8 then begin
        let opt = cost_of (Opt.run Opt.Dphyp g) in
        List.iteri
          (fun i c ->
            check
              (Printf.sprintf "%s sample %d: optimum <= sample" name i)
              true
              (opt <= c +. 1e-9))
          (sample_costs ~seeds:(List.init 8 Fun.id) g)
      end)
    (graphs_under_test ())

let test_sampled_plans_structurally_valid () =
  List.iter
    (fun (name, g) ->
      if G.num_nodes g <= 8 then
        List.iter
          (fun seed ->
            match random_plan ~seed g with
            | None -> Alcotest.failf "%s: no sampled plan" name
            | Some p -> (
                check (name ^ ": covers all") true
                  (Ns.equal p.Plans.Plan.set (G.all_nodes g));
                match Plans.Plan_check.check g p with
                | [] -> ()
                | issues ->
                    Alcotest.failf "%s seed %d: %s" name seed
                      (String.concat "; "
                         (List.map Plans.Plan_check.issue_to_string issues))))
          [ 0; 1; 2 ])
    (graphs_under_test ())

let test_sampling_diversity () =
  (* different seeds should find different plan shapes on a clique *)
  let g = Workloads.Shapes.clique 5 in
  let plans =
    List.filter_map
      (fun seed -> random_plan ~seed g)
      (List.init 12 Fun.id)
  in
  let distinct =
    List.sort_uniq compare (List.map Plans.Plan.to_string plans)
  in
  check "several distinct shapes" true (List.length distinct >= 4)

(* ---------- GOO ---------- *)

let test_goo_valid_but_suboptimal () =
  List.iter
    (fun (name, g) ->
      let goo = Opt.run Opt.Goo g in
      let opt = Opt.run Opt.Dphyp g in
      match goo.plan, opt.plan with
      | Some gp, Some op ->
          check (name ^ ": goo covers V") true
            (Ns.equal gp.Plans.Plan.set (G.all_nodes g));
          check (name ^ ": goo >= optimal") true
            (gp.Plans.Plan.cost >= op.Plans.Plan.cost -. 1e-9)
      | _ -> Alcotest.failf "%s: missing plan" name)
    (graphs_under_test ())

let test_goo_strictly_worse_somewhere () =
  (* greedy must actually lose on at least one of these graphs,
     otherwise the benchmark X4 is vacuous *)
  let worse =
    List.exists
      (fun (_, g) ->
        match (Opt.run Opt.Goo g).plan, (Opt.run Opt.Dphyp g).plan with
        | Some gp, Some op -> gp.Plans.Plan.cost > op.Plans.Plan.cost *. 1.0001
        | _ -> false)
      (graphs_under_test ())
  in
  check "goo suboptimal somewhere" true worse

(* ---------- filters ---------- *)

let test_filter_false_blocks_everything () =
  let g = Workloads.Shapes.chain 4 in
  let r = Opt.run ~filter:(fun _ _ _ -> false) Opt.Dphyp g in
  check "no plan under false filter" true (r.plan = None);
  check "rejections counted" true
    (r.counters.Core.Counters.filter_rejected > 0)

let test_filter_unsupported () =
  let g = Workloads.Shapes.chain 4 in
  Alcotest.check_raises "goo rejects filter"
    (Invalid_argument "Optimizer.run: goo does not support a validity filter")
    (fun () -> ignore (Opt.run ~filter:(fun _ _ _ -> true) Opt.Goo g))

let test_filter_trivial_preserves_result () =
  List.iter
    (fun (name, g) ->
      let c1 = cost_of (Opt.run Opt.Dphyp g) in
      let c2 = cost_of (Opt.run ~filter:(fun _ _ _ -> true) Opt.Dphyp g) in
      check (name ^ ": true filter is identity") true
        (Float.abs (c1 -. c2) <= 1e-9 *. Float.max 1.0 c1))
    (graphs_under_test ())

(* ---------- dependent operators (Section 5.6) ---------- *)

let test_dependent_switch () =
  (* T1 is a table function over T0: the optimizer must emit a
     dependent join with T0 on the left *)
  let g =
    G.make
      [|
        G.base_rel ~card:100.0 "T0";
        G.base_rel ~card:10.0 ~free:(Ns.singleton 0) "f";
      |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~id:0 0 1 |]
  in
  match (Opt.run Opt.Dphyp g).plan with
  | Some { tree = Plans.Plan.Join j; _ } ->
      check "dependent" true j.op.Relalg.Operator.dependent;
      check "table function on the right" true
        (Ns.equal j.right.Plans.Plan.set (Ns.singleton 1))
  | _ -> Alcotest.fail "expected a join plan"

let test_dependent_no_valid_orientation () =
  (* two table functions depending on each other: no plan exists *)
  let g =
    G.make
      [|
        G.base_rel ~card:100.0 ~free:(Ns.singleton 1) "f0";
        G.base_rel ~card:10.0 ~free:(Ns.singleton 0) "f1";
      |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~id:0 0 1 |]
  in
  check "cyclic dependence has no plan" true ((Opt.run Opt.Dphyp g).plan = None)

(* ---------- operator resolution ---------- *)

(* Two relations joined by parallel edges: all inner edges conjoin
   into a plain join, exactly one non-inner edge dictates operator and
   orientation, two non-inner edges cannot be combined. *)
let test_applicable_op () =
  let resolve ops =
    let edges =
      Array.of_list
        (List.mapi (fun id op -> He.make ~op ~id (ns [ 0 ]) (ns [ 1 ])) ops)
    in
    let g = G.make [| G.base_rel "A"; G.base_rel "B" |] edges in
    Plans.Plan.resolve g (ns [ 0 ]) (ns [ 1 ]) (Costing.Candidate.create ())
  in
  let join = Relalg.Operator.join
  and louter = Relalg.Operator.left_outer
  and anti = Relalg.Operator.left_anti in
  check_int "all inner" 0 (resolve [ join; join ]);
  let res = resolve [ join; louter ] in
  check "single non-inner op" true (res > 0 && not (Plans.Plan.backward res));
  check_int "the louter edge" (2 * (1 + 1)) res;
  check_int "two non-inner ambiguous" Plans.Plan.rejected (resolve [ louter; anti ])

(* ---------- resolution equivalence (qcheck) ---------- *)

(* The list-and-bitset resolution every plan used to carry, kept here
   as the reference: plans record the edges they applied, and a join
   applies its connecting edges plus every covered edge neither input
   applied ("pending").  The cost-first core instead resolves a pair
   from its two node sets alone, relying on applied = covered. *)
module Ref = struct
  module P = Plans.Plan

  type plan = { p : P.t; applied : int list }

  let applicable_op edges =
    match
      List.filter
        (fun ((e : He.t), _) -> e.op.Relalg.Operator.kind <> Relalg.Operator.Inner)
        edges
    with
    | [] -> `Inner
    | [ (e, o) ] -> `Op (e, o)
    | _ -> `Ambiguous

  let resolve g r1 r2 =
    match G.connecting_edges g r1.p.P.set r2.p.P.set with
    | [] -> None
    | connecting -> (
        let both = Ns.union r1.p.P.set r2.p.P.set in
        let pending = ref [] in
        for i = 0 to G.num_edges g - 1 do
          if
            Ns.subset (G.edge_cover g i) both
            && (not (List.mem i r1.applied))
            && (not (List.mem i r2.applied))
            && not (List.exists (fun ((c : He.t), _) -> c.id = i) connecting)
          then pending := G.edge g i :: !pending
        done;
        let pending = !pending in
        if
          List.exists
            (fun (e : He.t) -> e.op.Relalg.Operator.kind <> Relalg.Operator.Inner)
            pending
        then None
        else
          match applicable_op connecting with
          | `Ambiguous -> None
          | (`Inner | `Op _) as resolution ->
              let sel =
                Costing.Cardinality.selectivity_product connecting
                *. List.fold_left (fun s (e : He.t) -> s *. e.sel) 1.0 pending
              in
              let edge_ids =
                List.map (fun ((e : He.t), _) -> e.id) connecting
                @ List.rev_map (fun (e : He.t) -> e.id) pending
              in
              Some (edge_ids, sel, resolution))

  let build_one g ~op ~edge_ids ~sel l r =
    let out x = Ns.diff (G.free_of g x.p.P.set) x.p.P.set in
    if Ns.intersects (out l) r.p.P.set then None
    else
      let op =
        if Ns.intersects (out r) l.p.P.set then
          if op.Relalg.Operator.kind = Relalg.Operator.Full_outer then None
          else Some (Relalg.Operator.to_dependent op)
        else Some op
      in
      Option.map
        (fun op ->
          {
            p = P.join Costing.Cost_model.c_out ~op ~edge_ids ~sel l.p r.p;
            applied = List.sort_uniq compare (edge_ids @ l.applied @ r.applied);
          })
        op

  let candidates g r1 r2 =
    match resolve g r1 r2 with
    | None -> []
    | Some (edge_ids, sel, resolution) ->
        let mk l r op = build_one g ~op ~edge_ids ~sel l r in
        List.filter_map Fun.id
          (match resolution with
          | `Inner -> Relalg.Operator.[ mk r1 r2 join; mk r2 r1 join ]
          | `Op ((e : He.t), o) ->
              let l, r = if o = He.Forward then (r1, r2) else (r2, r1) in
              mk l r e.op
              :: (if Relalg.Operator.commutative e.op then [ mk r l e.op ] else []))
end

(* Replay DPhyp's ccps through a DP over reference plans; on every
   pair the reference and [Emit.candidates] (the cost-first core's
   resolution and argument-order rules) must agree on accept/reject,
   operator, orientation, edge_ids, and bit-equal sel and cost. *)
let resolution_agrees ?(leaf = fun g v -> Plans.Plan.scan g v) g =
  let bits = Int64.bits_of_float in
  let table = Hashtbl.create 64 in
  for v = 0 to G.num_nodes g - 1 do
    Hashtbl.replace table (Ns.to_int (Ns.singleton v))
      { Ref.p = leaf g v; applied = [] }
  done;
  let counters = Core.Counters.create () in
  List.for_all
    (fun (s1, s2) ->
      match
        Hashtbl.find_opt table (Ns.to_int s1), Hashtbl.find_opt table (Ns.to_int s2)
      with
      | Some r1, Some r2 ->
          let expected = Ref.candidates g r1 r2 in
          let got =
            Core.Emit.candidates ~model:Costing.Cost_model.c_out ~counters g
              r1.Ref.p r2.Ref.p
          in
          let same (r : Ref.plan) (q : Plans.Plan.t) =
            match r.p.tree, q.tree with
            | Plans.Plan.Join a, Plans.Plan.Join b ->
                Ns.equal a.left.set b.left.set
                && Relalg.Operator.equal a.op b.op
                && a.edge_ids = b.edge_ids
                && bits a.sel = bits b.sel
                && bits r.p.cost = bits q.cost
                && bits r.p.card = bits q.card
            | _ -> false
          in
          let agree =
            List.length expected = List.length got && List.for_all2 same expected got
          in
          List.iter
            (fun (r : Ref.plan) ->
              let key = Ns.to_int r.p.set in
              match Hashtbl.find_opt table key with
              | Some old when old.Ref.p.cost <= r.p.cost -> ()
              | _ -> Hashtbl.replace table key r)
            expected;
          agree
      | _ -> true)
    (Core.Dphyp.enumerate_ccps g)

let prop_resolution_equivalence =
  QCheck.Test.make ~name:"cost-first resolution = list-and-bitset reference"
    ~count:30 QCheck.(int_bound 100_000)
    (fun seed ->
      let hyper =
        Workloads.Random_graphs.hyper ~seed ~n:(5 + (seed mod 4))
          ~extra_edges:(seed mod 3) ~hyperedges:(1 + (seed mod 3))
          ~max_hypernode:2 ()
      in
      let tree =
        if seed mod 2 = 0 then
          Workloads.Noninner.star_antijoins ~n_rel:(5 + (seed mod 3))
            ~k:(1 + (seed mod 3)) ()
        else
          Workloads.Noninner.cycle_outerjoins ~n_rel:(5 + (seed mod 3))
            ~k:(1 + (seed mod 2)) ()
      in
      let noninner =
        Conflicts.Derive.hypergraph (Conflicts.Analysis.analyze tree)
      in
      let random_noninner =
        Conflicts.Derive.hypergraph
          (Conflicts.Analysis.analyze
             (Conflicts.Simplify.simplify
                (Workloads.Random_trees.random_tree ~seed ~n:6
                   ~ops:Relalg.Operator.[ join; left_outer; full_outer; left_semi;
                                          left_anti; left_nest ])))
      in
      (* a table-valued function: the last relation depends on R0
         (Section 5.6's dependent switch) *)
      let dependent =
        let n = G.num_nodes hyper in
        G.make
          (Array.init n (fun i ->
               let r = G.relation hyper i in
               if i = n - 1 then { r with G.free = Ns.singleton 0 } else r))
          (G.edges hyper)
      in
      (* IDP's contracted nodes: contract a contractible two-node
         block and seed its leaf with the block plan's cost *)
      let compound =
        let g = hyper in
        match
          List.find_opt
            (fun i -> Ns.cardinal (G.edge_cover g i) = 2 && G.contractible g (G.edge_cover g i))
            (List.init (G.num_edges g) Fun.id)
        with
        | None -> []
        | Some i ->
            let block = G.edge_cover g i in
            let sub =
              Option.get
                (Core.Dphyp.solve_induced ~leaf_cost:(fun _ -> 0.0)
                   (G.induced g block)
                |> snd)
            in
            let c = G.contract g ~block ~card:sub.Plans.Plan.card in
            let node = c.G.node_of.(Ns.min_elt block) in
            [
              ( c.G.cgraph,
                fun g v ->
                  let p = Plans.Plan.scan g v in
                  if v = node then { p with cost = sub.Plans.Plan.cost } else p );
            ]
      in
      List.for_all (fun g -> resolution_agrees g)
        [ hyper; dependent; noninner; random_noninner ]
      && List.for_all (fun (g, leaf) -> resolution_agrees ~leaf g) compound)

(* ---------- certified minimum pairs ---------- *)

(* Adaptive skips an exact rung on the word of [Dphyp.min_pairs], so
   an unbudgeted, unbounded run must tick at least that many pairs. *)
let min_pairs_sound ?model name g =
  let counters = Core.Counters.create () in
  ignore (Core.Dphyp.solve ?model ~counters g);
  let m = Core.Dphyp.min_pairs g in
  let pairs = counters.Core.Counters.pairs_considered in
  m <= pairs
  || QCheck.Test.fail_reportf "%s: min_pairs %d > %d pairs considered" name m
       pairs

let with_free g i free =
  G.make
    (Array.init (G.num_nodes g) (fun j ->
         let r = G.relation g j in
         if j = i then { r with G.free } else r))
    (G.edges g)

let prop_min_pairs_sound =
  QCheck.Test.make ~name:"min_pairs <= pairs of an unbudgeted dphyp run"
    ~count:120 QCheck.(int_bound 100_000)
    (fun seed ->
      let p = { Workloads.Shapes.default_params with seed } in
      let n = 4 + (seed mod 9) in
      let simple =
        Workloads.Random_graphs.simple ~p ~seed ~n ~extra_edges:(seed mod 5) ()
      in
      let hyper =
        Workloads.Random_graphs.hyper ~p ~seed ~n:(5 + (seed mod 4))
          ~extra_edges:(seed mod 3) ~hyperedges:(1 + (seed mod 3))
          ~max_hypernode:3 ()
      in
      let star = Workloads.Shapes.star ~p (2 + (seed mod 8)) in
      let n_rel = 5 + (seed mod 3) in
      let noninner =
        Conflicts.Derive.hypergraph
          (Conflicts.Analysis.analyze
             (if seed mod 2 = 0 then
                Workloads.Noninner.star_antijoins ~p ~n_rel
                  ~k:(1 + (seed mod 3)) ()
              else
                Workloads.Noninner.cycle_outerjoins ~p ~n_rel
                  ~k:(1 + (seed mod 2)) ()))
      in
      let random_noninner =
        Conflicts.Derive.hypergraph
          (Conflicts.Analysis.analyze
             (Conflicts.Simplify.simplify
                (Workloads.Random_trees.random_tree ~seed ~n:(4 + (seed mod 4))
                   ~ops:Relalg.Operator.[ join; left_outer; full_outer; left_semi;
                                          left_anti; left_nest ])))
      in
      let model =
        if seed mod 3 = 0 then Costing.Cost_model.c_mm
        else Costing.Cost_model.c_out
      in
      List.for_all
        (fun (name, g) -> min_pairs_sound ~model name g)
        [
          ("simple", simple);
          ("hyper", hyper);
          ("star", star);
          (* a centre may depend on a satellite; a satellite that
             depends on anything drops out of every star *)
          ("star, centre dependent", with_free star 0 (Ns.singleton 1));
          ("star, satellite dependent", with_free star 1 (Ns.singleton 0));
          ("simple, dependent", with_free simple (n - 1) (Ns.singleton 0));
          ( "simple, mutually dependent",
            with_free (with_free simple 0 (Ns.singleton 1)) 1 (Ns.singleton 0) );
          ("noninner", noninner);
          ("random noninner", random_noninner);
        ])

let test_min_pairs_star () =
  for k = 2 to 14 do
    let g = Workloads.Shapes.star k in
    let m = Core.Dphyp.min_pairs g in
    check_int
      (Printf.sprintf "star-%d = closed form" k)
      (Workloads.Formulas.ccp Workloads.Formulas.Star (k + 1))
      m;
    let counters = Core.Counters.create () in
    ignore (Core.Dphyp.solve ~counters g);
    check_int
      (Printf.sprintf "star-%d = pairs considered" k)
      counters.Core.Counters.pairs_considered m
  done;
  check_int "star-29 certifies its 7.8e9 pairs" 7_784_628_224
    (Core.Dphyp.min_pairs (Workloads.Shapes.star 29));
  check_int "saturates instead of overflowing" max_int
    (Core.Dphyp.min_pairs (Workloads.Shapes.star 70))

(* Each guard of [min_pairs] has a graph that breaks the bound
   without it. *)
let test_min_pairs_guards () =
  (* R0—R1 carries two selectivities whose product underflows to 0;
     with cardinalities near max_float the pair prices to ∞·0 = NaN,
     so {R0,R1} never enters the table and the star R0—{R1,R2} walks 3
     of its 4 pairs.  The selectivity guard drops R0 and R1 as star
     points. *)
  let underflow =
    G.make
      [|
        G.base_rel ~card:1e300 "R0";
        G.base_rel ~card:1e300 "R1";
        G.base_rel ~card:10.0 "R2";
      |]
      [|
        He.simple ~sel:1e-200 ~id:0 0 1;
        He.simple ~sel:1e-200 ~id:1 0 1;
        He.simple ~sel:0.5 ~id:2 0 2;
      |]
  in
  check "underflow: sound" true (min_pairs_sound "underflow" underflow);
  check_int "underflow: only R0—R2 certified" 1
    (Core.Dphyp.min_pairs underflow);
  (* two antijoins between R0 and R1 cannot both apply, so {R0,R1} has
     no plan and again only 3 of the star's 4 pairs are walked *)
  let antijoins =
    G.make
      (Array.init 3 (fun i -> G.base_rel (Printf.sprintf "R%d" i)))
      [|
        He.simple ~op:Relalg.Operator.left_anti ~id:0 0 1;
        He.simple ~op:Relalg.Operator.left_anti ~id:1 0 1;
        He.simple ~id:2 0 2;
      |]
  in
  check "antijoins: sound" true (min_pairs_sound "antijoins" antijoins);
  check_int "antijoins: only R0—R2 certified" 1
    (Core.Dphyp.min_pairs antijoins);
  (* a NaN cardinality prices every pair at the centre NaN *)
  let nan_centre =
    G.make
      [| G.base_rel ~card:nan "R0"; G.base_rel "R1"; G.base_rel "R2" |]
      [| He.simple ~id:0 0 1; He.simple ~id:1 0 2 |]
  in
  check "nan centre: sound" true (min_pairs_sound "nan centre" nan_centre);
  check_int "nan centre: nothing certified" 0
    (Core.Dphyp.min_pairs nan_centre)

(* ---------- allocation per ccp ---------- *)

(* Minor words per csg-cmp-pair of a whole sequential DPhyp run.  The
   count is deterministic (no timing involved), so the gate is tight:
   a candidate that loses must not allocate. *)
let words_per_ccp g =
  let counters = Core.Counters.create () in
  let w0 = Gc.minor_words () in
  ignore (Core.Dphyp.solve ~counters g);
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int counters.Core.Counters.ccp_emitted

let test_alloc_per_ccp () =
  let star = words_per_ccp (Workloads.Shapes.star 16) in
  check (Printf.sprintf "star-16: %.1f words/ccp <= 13" star) true (star <= 13.0);
  let g6 = List.nth (Workloads.Splits.cycle_based 16) 6 in
  let split = words_per_ccp g6 in
  check (Printf.sprintf "cycle-based-16 G6: %.1f words/ccp <= 20" split) true
    (split <= 20.0)

(* Words allocated by a whole budgeted [Adaptive.solve]: minor plus
   major less promoted, so a word is counted once wherever it was
   allocated.  DP tables of the IDP and partitioned rungs are sized
   from the block they fill; a table sized from the whole graph went
   straight to the major heap at up to 2^21 buckets per round.  The
   bounds are about twice the words measured (37k and ~0.3M; sized
   from the whole graph, 4.3M and 10.7M). *)
let adaptive_words g =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Core.Adaptive.solve ~budget:1_000_000 g);
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_alloc_adaptive () =
  List.iter
    (fun (name, g, bound) ->
      let w = adaptive_words g in
      check
        (Printf.sprintf "%s: %.0f words <= %.0f" name w bound)
        true (w <= bound))
    [
      ("star-30", Workloads.Shapes.star 30, 75_000.);
      ("grid-8x8", Workloads.Shapes.grid ~rows:8 ~cols:8 (), 650_000.);
    ]

(* ---------- properties over random graphs ---------- *)

let prop_random_agreement =
  QCheck.Test.make ~name:"dphyp = dpsub = dpsize on random hypergraphs"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Workloads.Random_graphs.hyper ~seed ~n:6 ~extra_edges:2 ~hyperedges:2
          ~max_hypernode:3 ()
      in
      let c1 = cost_of (Opt.run Opt.Dphyp g) in
      let c2 = cost_of (Opt.run Opt.Dpsub g) in
      let c3 = cost_of (Opt.run Opt.Dpsize g) in
      Float.abs (c1 -. c2) <= 1e-9 *. c1 && Float.abs (c1 -. c3) <= 1e-9 *. c1)

let prop_random_emission =
  QCheck.Test.make ~name:"dphyp emission = brute force on random hypergraphs"
    ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Workloads.Random_graphs.hyper ~seed ~n:6 ~extra_edges:2 ~hyperedges:2
          ~max_hypernode:3 ()
      in
      canon (Core.Dphyp.enumerate_ccps g)
      = canon (Hypergraph.Csg_enum.csg_cmp_pairs g))

(* ---------- indexed enumeration vs. naive reference ---------- *)

(* A reference DPhyp enumerator: the same five member functions as
   Core.Dphyp, but driven by naive all-edges re-implementations of
   neighborhood and connects, and by a plain set table instead of the
   DP table (valid on inner-join-only graphs, where every emitted pair
   installs an entry).  The indexed fast paths change complexity, not
   semantics, so the emission traces must be identical element for
   element — the "before/after" guarantee of the hot-path overhaul. *)
let reference_trace g =
  let module Se = Nodeset.Subset_enum in
  let naive_neighborhood s x =
    let simple =
      Ns.fold (fun v acc -> Ns.union (G.simple_neighbors g v) acc) s Ns.empty
    in
    let simple = Ns.diff simple (Ns.union s x) in
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
    let nb = ref simple in
    List.iter
      (fun c ->
        if
          Ns.disjoint c simple
          && not
               (List.exists
                  (fun c' -> (not (Ns.equal c c')) && Ns.strict_subset c' c)
                  !cands)
        then nb := Ns.add (Ns.min_elt c) !nb)
      !cands;
    !nb
  in
  let connects s1 s2 = Array.exists (fun e -> He.connects e s1 s2) (G.edges g) in
  let tbl = Hashtbl.create 256 in
  let mem s = Hashtbl.mem tbl (Ns.to_int s) in
  let trace = ref [] in
  let emit s1 s2 =
    trace := (s1, s2) :: !trace;
    Hashtbl.replace tbl (Ns.to_int (Ns.union s1 s2)) ()
  in
  let rec enumerate_cmp_rec s1 s2 x =
    let nb = naive_neighborhood s2 x in
    if not (Ns.is_empty nb) then begin
      Se.iter_nonempty nb (fun sub ->
          let s2' = Ns.union s2 sub in
          if mem s2' && connects s1 s2' then emit s1 s2');
      let x' = Ns.union x nb in
      Se.iter_nonempty nb (fun sub -> enumerate_cmp_rec s1 (Ns.union s2 sub) x')
    end
  in
  let emit_csg s1 =
    let x = Ns.union s1 (Ns.upto (Ns.min_elt s1)) in
    let nb = naive_neighborhood s1 x in
    Ns.iter_desc
      (fun v ->
        let s2 = Ns.singleton v in
        if connects s1 s2 then emit s1 s2;
        enumerate_cmp_rec s1 s2 (Ns.union x (Ns.inter nb (Ns.upto v))))
      nb
  in
  let rec enumerate_csg_rec s1 x =
    let nb = naive_neighborhood s1 x in
    if not (Ns.is_empty nb) then begin
      Se.iter_nonempty nb (fun sub ->
          let s1' = Ns.union s1 sub in
          if mem s1' then emit_csg s1');
      let x' = Ns.union x nb in
      Se.iter_nonempty nb (fun sub -> enumerate_csg_rec (Ns.union s1 sub) x')
    end
  in
  let n = G.num_nodes g in
  for v = 0 to n - 1 do
    Hashtbl.replace tbl (Ns.to_int (Ns.singleton v)) ()
  done;
  for v = n - 1 downto 0 do
    let s = Ns.singleton v in
    emit_csg s;
    enumerate_csg_rec s (Ns.upto v)
  done;
  List.rev !trace

let test_trace_matches_reference () =
  let raw pairs = List.map (fun (a, b) -> (Ns.to_int a, Ns.to_int b)) pairs in
  let cases =
    List.mapi
      (fun i g -> (Printf.sprintf "cycle8 split %d" i, g))
      (Workloads.Splits.cycle_based 8)
    @ List.mapi
        (fun i g -> (Printf.sprintf "star8 split %d" i, g))
        (Workloads.Splits.star_based 8)
    @ [
        ("chain7", Workloads.Shapes.chain 7);
        ("clique5", Workloads.Shapes.clique 5);
      ]
  in
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list (pair int int)))
        name
        (raw (reference_trace g))
        (raw (Core.Dphyp.enumerate_ccps g)))
    cases

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "emission",
        [
          Alcotest.test_case "exactly the ccps" `Quick test_dphyp_emits_exactly_ccps;
          Alcotest.test_case "canonical order" `Quick test_dphyp_canonical_min_order;
          Alcotest.test_case "DP order" `Quick test_dphyp_dp_order;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "all exact algorithms" `Quick test_all_algorithms_agree;
          Alcotest.test_case "under c_mm" `Quick test_agreement_under_cmm;
          Alcotest.test_case "dpccp trace" `Quick test_dpccp_matches_dphyp_trace;
          Alcotest.test_case "dpccp rejects hypergraphs" `Quick
            test_dpccp_rejects_hypergraphs;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure 3 trace" `Quick test_fig3_trace_golden;
          Alcotest.test_case "trace = naive reference on split families"
            `Quick test_trace_matches_reference;
        ] );
      ( "counters",
        [
          Alcotest.test_case "dphyp tight" `Quick test_counters_dphyp_tight;
          Alcotest.test_case "baselines waste" `Quick test_counters_baselines_waste;
          Alcotest.test_case "dp entries = csg count" `Quick
            test_dp_entries_is_csg_count;
          Alcotest.test_case "tdpart beats naive topdown" `Quick
            test_tdpart_beats_naive;
        ] );
      ( "budget",
        [
          Alcotest.test_case "zero budget raises" `Quick test_budget_zero;
          Alcotest.test_case "exactly-sufficient budget does not raise" `Quick
            test_budget_exactly_sufficient;
          Alcotest.test_case "reset preserves the limit" `Quick
            test_reset_preserves_limit;
          Alcotest.test_case "pp shows budget context" `Quick
            test_counters_pp_budget;
          Alcotest.test_case "null-sink run leaves counters untouched" `Quick
            test_null_sink_counters_identical;
        ] );
      ( "plans",
        [
          Alcotest.test_case "cover all relations" `Quick
            test_plan_covers_all_relations;
          Alcotest.test_case "no cross products" `Quick test_no_cross_products;
          Alcotest.test_case "structurally valid (Plan_check)" `Quick
            test_plans_structurally_valid;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "disconnected query" `Quick
            test_disconnected_query_cross_products;
          Alcotest.test_case "three components" `Quick test_three_components;
          Alcotest.test_case "chain near node limit" `Quick
            test_large_chain_near_node_limit;
          Alcotest.test_case "unit cardinalities" `Quick test_unit_cardinalities;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "never beats optimum" `Quick
            test_sampled_plans_never_beat_optimum;
          Alcotest.test_case "structurally valid" `Quick
            test_sampled_plans_structurally_valid;
          Alcotest.test_case "diversity" `Quick test_sampling_diversity;
        ] );
      ( "goo",
        [
          Alcotest.test_case "valid but suboptimal" `Quick
            test_goo_valid_but_suboptimal;
          Alcotest.test_case "strictly worse somewhere" `Quick
            test_goo_strictly_worse_somewhere;
        ] );
      ( "filter",
        [
          Alcotest.test_case "false blocks" `Quick test_filter_false_blocks_everything;
          Alcotest.test_case "unsupported" `Quick test_filter_unsupported;
          Alcotest.test_case "true is identity" `Quick
            test_filter_trivial_preserves_result;
        ] );
      ( "dependent",
        [
          Alcotest.test_case "switch fires" `Quick test_dependent_switch;
          Alcotest.test_case "cycle has no plan" `Quick
            test_dependent_no_valid_orientation;
        ] );
      ( "emit",
        [
          Alcotest.test_case "applicable_op" `Quick test_applicable_op;
          q prop_resolution_equivalence;
          Alcotest.test_case "minor words per ccp" `Quick test_alloc_per_ccp;
          Alcotest.test_case "words per budgeted adaptive run" `Quick
            test_alloc_adaptive;
        ] );
      ("properties", [ q prop_random_agreement; q prop_random_emission ]);
      ( "min-pairs",
        [
          q prop_min_pairs_sound;
          Alcotest.test_case "stars: closed form, pairs considered" `Quick
            test_min_pairs_star;
          Alcotest.test_case "guards: underflow, non-inner, NaN card" `Quick
            test_min_pairs_guards;
        ] );
    ]
