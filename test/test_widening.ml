(* Differential oracle layer for the width-polymorphic Node_set and
   the large-query partitioned tier.

   The widening refactor promises that nothing observable changes for
   queries of at most Node_set.small_capacity (62) relations: the
   single-word fast path is the exact pre-widening representation, and
   the multi-word path must be behaviourally indistinguishable from it
   wherever both apply.  These tests enforce that promise three ways:

   - op-by-op: every Node_set operation returns the same value whether
     its operands are small or force-widened (and mixing the two);
   - trace-by-trace: DPhyp emits the identical csg-cmp-pair sequence,
     and the identical optimal cost, on a graph whose node sets were
     built wide;
   - plan-by-plan: the partitioned large-query tier agrees exactly
     with whole-graph DPhyp whenever one block covers the query, and
     is bounded below by it (and Plan_check-valid) when it genuinely
     partitions.

   Plus a model-based check of the wide representation itself against
   a sorted-list oracle, and the fingerprint differential required by
   the plan cache (same graph, either representation, same key). *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer
module Pc = Plans.Plan_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let q = QCheck_alcotest.to_alcotest

let sign c = compare c 0

(* value AND observation equality: the sets agree under equal,
   compare, hash, cardinality and full member enumeration *)
let same_set x y =
  Ns.equal x y
  && sign (Ns.compare x y) = 0
  && Ns.hash x = Ns.hash y
  && Ns.cardinal x = Ns.cardinal y
  && Ns.to_list x = Ns.to_list y

(* ---------- 1. op-differential: small vs forced-wide ---------- *)

let small_set = QCheck.map Ns.of_list QCheck.(small_list (int_bound 61))

let ops_agree a b =
  let wa = Ns.Internal.force_wide a and wb = Ns.Internal.force_wide b in
  let even v = v mod 2 = 0 in
  Ns.Internal.is_wide_repr wa
  && Ns.fits_small wa
  && same_set a wa
  && same_set (Ns.union a b) (Ns.union wa wb)
  && same_set (Ns.inter a b) (Ns.inter wa wb)
  && same_set (Ns.diff a b) (Ns.diff wa wb)
  (* mixed representations must behave like either pure one *)
  && same_set (Ns.union a b) (Ns.union a wb)
  && same_set (Ns.inter a b) (Ns.inter wa b)
  && same_set (Ns.diff a b) (Ns.diff a wb)
  && Ns.subset a b = Ns.subset wa wb
  && Ns.strict_subset a b = Ns.strict_subset wa wb
  && Ns.disjoint a b = Ns.disjoint wa wb
  && Ns.intersects a b = Ns.intersects wa wb
  && Ns.equal a b = Ns.equal wa wb
  && Ns.equal a b = Ns.equal a wb
  && sign (Ns.compare a b) = sign (Ns.compare wa wb)
  && sign (Ns.compare a b) = sign (Ns.compare wa b)
  && Ns.is_empty a = Ns.is_empty wa
  && Ns.is_singleton a = Ns.is_singleton wa
  && Ns.min_elt_opt a = Ns.min_elt_opt wa
  && (Ns.is_empty a || Ns.max_elt a = Ns.max_elt wa)
  && (Ns.is_empty a || Ns.choose a = Ns.choose wa)
  && same_set (Ns.min_set a) (Ns.min_set wa)
  && same_set (Ns.without_min a) (Ns.without_min wa)
  && (Ns.is_empty a || Ns.to_int a = Ns.to_int wa)
  && List.for_all (fun v -> Ns.mem v a = Ns.mem v wa) [ 0; 1; 13; 31; 61 ]
  && same_set (Ns.add 13 a) (Ns.add 13 wa)
  && same_set (Ns.remove 13 a) (Ns.remove 13 wa)
  && Ns.fold (fun v l -> v :: l) a [] = Ns.fold (fun v l -> v :: l) wa []
  && same_set (Ns.filter even a) (Ns.filter even wa)
  && Ns.for_all even a = Ns.for_all even wa
  && Ns.exists even a = Ns.exists even wa
  && Ns.to_string a = Ns.to_string wa
  &&
  let iter_list it s =
    let l = ref [] in
    it (fun v -> l := v :: !l) s;
    List.rev !l
  in
  iter_list Ns.iter a = iter_list Ns.iter wa
  && iter_list Ns.iter_desc a = iter_list Ns.iter_desc wa
  && same_set
       (Ns.union_over_array [| a; b; Ns.empty |] (Ns.of_list [ 0; 1; 2 ]))
       (Ns.union_over_array
          [| wa; wb; Ns.Internal.force_wide Ns.empty |]
          (Ns.Internal.force_wide (Ns.of_list [ 0; 1; 2 ])))

let prop_ops_differential =
  QCheck.Test.make ~name:"every op agrees small vs forced-wide (n <= 62)"
    ~count:1000
    (QCheck.pair small_set small_set)
    (fun (a, b) -> ops_agree a b)

(* constructors under forced-wide mode build the same values *)
let prop_constructors_differential =
  QCheck.Test.make ~name:"constructors agree under with_force_wide"
    ~count:300
    QCheck.(pair (int_bound 61) (small_list (int_bound 61)))
    (fun (v, l) ->
      let wide f = Ns.Internal.with_force_wide f in
      same_set (Ns.singleton v) (wide (fun () -> Ns.singleton v))
      && same_set (Ns.full v) (wide (fun () -> Ns.full v))
      && same_set (Ns.below v) (wide (fun () -> Ns.below v))
      && same_set (Ns.upto v) (wide (fun () -> Ns.upto v))
      && same_set (Ns.range 3 v) (wide (fun () -> Ns.range 3 v))
      && same_set (Ns.of_list l) (wide (fun () -> Ns.of_list l))
      && Ns.Internal.is_wide_repr (wide (fun () -> Ns.singleton v)))

(* subset enumeration: numeric stride vs wide member-counter walk *)
let prop_subset_enum_differential =
  QCheck.Test.make ~name:"subset enumeration identical small vs wide"
    ~count:300 small_set (fun m ->
      QCheck.assume (Ns.cardinal m <= 10);
      let wm = Ns.Internal.force_wide m in
      let l = Nodeset.Subset_enum.to_list_nonempty m in
      let wl = Nodeset.Subset_enum.to_list_nonempty wm in
      List.length l = List.length wl && List.for_all2 same_set l wl)

(* ---------- 2. the wide representation vs a list model ---------- *)

let prop_wide_model =
  QCheck.Test.make ~name:"wide node_set vs sorted-list model (nodes < 300)"
    ~count:500
    QCheck.(pair (small_list (int_bound 299)) (small_list (int_bound 299)))
    (fun (la, lb) ->
      let a = Ns.of_list la and b = Ns.of_list lb in
      let sa = List.sort_uniq compare la and sb = List.sort_uniq compare lb in
      Ns.to_list (Ns.union a b) = List.sort_uniq compare (sa @ sb)
      && Ns.to_list (Ns.inter a b) = List.filter (fun v -> List.mem v sb) sa
      && Ns.to_list (Ns.diff a b)
         = List.filter (fun v -> not (List.mem v sb)) sa
      && Ns.cardinal a = List.length sa
      && Ns.min_elt_opt a = (match sa with [] -> None | x :: _ -> Some x)
      && (sa = [] || Ns.max_elt a = List.nth sa (List.length sa - 1))
      && Ns.subset a b
         = List.for_all (fun v -> List.mem v sb) sa
      && Ns.disjoint a b
         = List.for_all (fun v -> not (List.mem v sb)) sa
      && List.for_all (fun v -> Ns.mem v a = List.mem v sa) (la @ lb)
      && Ns.equal a b = (sa = sb)
      && Ns.fold (fun v acc -> acc + v) a 0 = List.fold_left ( + ) 0 sa)

(* word-boundary straddles: members packed around multiples of 62 *)
let test_word_boundaries () =
  List.iter
    (fun k ->
      let lo = (62 * k) - 1 and hi = 62 * k in
      let s = Ns.of_list [ lo; hi ] in
      check_int "cardinal" 2 (Ns.cardinal s);
      check "mem lo" true (Ns.mem lo s);
      check "mem hi" true (Ns.mem hi s);
      check "not mem hi+1" false (Ns.mem (hi + 1) s);
      Alcotest.(check (list int))
        "to_list" [ lo; hi ] (Ns.to_list s);
      check "remove hi keeps lo" true
        (Ns.equal (Ns.singleton lo) (Ns.remove hi s));
      check "diff over boundary" true
        (Ns.equal (Ns.singleton hi) (Ns.diff s (Ns.singleton lo))))
    [ 1; 2; 3; 16 ]

(* ---------- 3. DPhyp trace identity, small vs wide graphs ---------- *)

let trace_eq t1 t2 =
  List.length t1 = List.length t2
  && List.for_all2
       (fun (a1, b1) (a2, b2) -> Ns.equal a1 a2 && Ns.equal b1 b2)
       t1 t2

let prop_dphyp_trace_differential =
  QCheck.Test.make
    ~name:"DPhyp ccp trace identical on small- vs wide-built graphs"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 3 9))
    (fun (seed, n) ->
      let build () =
        Workloads.Random_graphs.hyper ~seed ~n ~extra_edges:2 ~hyperedges:1
          ~max_hypernode:3 ()
      in
      let g = build () in
      let gw = Ns.Internal.with_force_wide build in
      (* wide-built graph through the normal enumerator, and through an
         enumerator whose own sets are also forced wide *)
      let t = Core.Dphyp.enumerate_ccps g in
      trace_eq t (Core.Dphyp.enumerate_ccps gw)
      && trace_eq t
           (Ns.Internal.with_force_wide (fun () ->
                Core.Dphyp.enumerate_ccps gw)))

let prop_dphyp_cost_differential =
  QCheck.Test.make
    ~name:"DPhyp optimal cost identical on small- vs wide-built graphs"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 3 10))
    (fun (seed, n) ->
      let build () =
        Workloads.Random_graphs.simple ~seed ~n ~extra_edges:3 ()
      in
      let cost g =
        match Core.Dphyp.solve g with
        | Some p -> p.Plans.Plan.cost
        | None -> nan
      in
      let c = cost (build ()) in
      let cw =
        Ns.Internal.with_force_wide (fun () -> cost (build ()))
      in
      Float.equal c cw)

(* ---------- 4. fingerprints across representations ---------- *)

let prop_fingerprint_differential =
  QCheck.Test.make
    ~name:"cache fingerprint identical small vs wide representation"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 3 12))
    (fun (seed, n) ->
      let build () =
        Workloads.Random_graphs.hyper ~seed ~n ~extra_edges:2 ~hyperedges:1
          ~max_hypernode:3 ()
      in
      let f = Cache.Fingerprint.of_graph (build ()) in
      let fw =
        Ns.Internal.with_force_wide (fun () ->
            Cache.Fingerprint.of_graph (build ()))
      in
      Cache.Fingerprint.equal f fw
      && String.equal (Cache.Fingerprint.to_hex f)
           (Cache.Fingerprint.to_hex fw))

(* ---------- 5. partitioned tier vs exact DPhyp ---------- *)

let prop_partition_blocks_invariants =
  QCheck.Test.make
    ~name:"partition blocks: disjoint cover, connected, bounded"
    ~count:50
    QCheck.(triple (int_bound 10_000) (int_range 4 30) (int_range 2 8))
    (fun (seed, n, bs) ->
      let g = Workloads.Random_graphs.simple ~seed ~n ~extra_edges:3 () in
      let blocks = Core.Partition.partition g ~block_size:bs in
      let cache = Hypergraph.Connectivity.make_cache g in
      let all = List.fold_left Ns.union Ns.empty blocks in
      Ns.equal all (G.all_nodes g)
      && List.fold_left (fun c b -> c + Ns.cardinal b) 0 blocks = n
      (* simple edges only, so no complex cover can force an overflow *)
      && List.for_all (fun b -> Ns.cardinal b <= bs) blocks
      && List.for_all
           (fun b -> Hypergraph.Connectivity.is_connected cache b)
           blocks)

(* When the partitioned tier disagrees with exact DPhyp, a pair of
   scalar costs is a dead end; fail with the aligned plan diff so the
   first subtree the stitch got wrong is named directly. *)
let fail_with_diff g ~labels p e msg =
  let names i = (G.relation g i).G.name in
  QCheck.Test.fail_report
    (Printf.sprintf "%s\n%s" msg
       (Plans.Plan_diff.report ~names ~labels p e))

let prop_partition_single_block_exact =
  QCheck.Test.make
    ~name:"one-block partition cost = exact DPhyp cost" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 4 11))
    (fun (seed, n) ->
      let g = Workloads.Random_graphs.simple ~seed ~n ~extra_edges:2 () in
      match
        (Core.Partition.solve ~block_size:n g, Core.Dphyp.solve g)
      with
      | Some p, Some e ->
          Float.equal p.Plans.Plan.cost e.Plans.Plan.cost
          || fail_with_diff g ~labels:("partitioned", "exact") p e
               (Printf.sprintf
                  "one-block partition %.6g <> exact %.6g (seed %d, n %d)"
                  p.Plans.Plan.cost e.Plans.Plan.cost seed n)
      | _ -> false)

let prop_partition_bounded_by_exact =
  QCheck.Test.make
    ~name:"multi-block partition cost >= exact, plan valid" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 6 14))
    (fun (seed, n) ->
      let g = Workloads.Random_graphs.simple ~seed ~n ~extra_edges:2 () in
      match
        (Core.Partition.solve ~block_size:3 g, Core.Dphyp.solve g)
      with
      | Some p, Some e ->
          (* >= up to float rounding: the stitch returns a valid join
             tree, and no join tree beats the exact optimum *)
          (p.Plans.Plan.cost >= e.Plans.Plan.cost *. (1. -. 1e-9)
          || fail_with_diff g ~labels:("partitioned", "exact") p e
               (Printf.sprintf
                  "partitioned plan beats the exact optimum: %.6g < %.6g \
                   (seed %d, n %d)"
                  p.Plans.Plan.cost e.Plans.Plan.cost seed n))
          && Pc.check g p = []
      | _ -> false)

(* ---------- 6. the wide tier end to end ---------- *)

let assert_valid_plan name g (r : Opt.result) =
  match r.Opt.plan with
  | None -> Alcotest.failf "%s: no plan" name
  | Some p ->
      (match Pc.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: %s" name
            (String.concat "; " (List.map Pc.issue_to_string issues)));
      p

let test_adaptive_routes_wide () =
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Adaptive g in
      let (_ : Plans.Plan.t) = assert_valid_plan name g r in
      Alcotest.(check string)
        (name ^ " tier") "partitioned"
        (match r.Opt.tier with
        | Some t -> Core.Adaptive.tier_name t
        | None -> "?"))
    [
      ("star-63rel", Workloads.Shapes.star 62);
      ("star-128rel", Workloads.Shapes.star 127);
      ("chain-100", Workloads.Shapes.chain 100);
      ("snowflake-100", Workloads.Shapes.snowflake_n 100);
    ]

(* 63 relations is the first width past the single-word ceiling; the
   seam must not have an off-by-one on either side. *)
let test_boundary_63_relations () =
  let g62 = Workloads.Shapes.chain 62 and g63 = Workloads.Shapes.chain 63 in
  let r62 = Opt.run Opt.Adaptive g62 in
  let (_ : Plans.Plan.t) = assert_valid_plan "chain-62" g62 r62 in
  Alcotest.(check string)
    "chain-62 stays exact" "exact"
    (match r62.Opt.tier with
    | Some t -> Core.Adaptive.tier_name t
    | None -> "?");
  let r63 = Opt.run Opt.Adaptive g63 in
  let (_ : Plans.Plan.t) = assert_valid_plan "chain-63" g63 r63 in
  Alcotest.(check string)
    "chain-63 goes partitioned" "partitioned"
    (match r63.Opt.tier with
    | Some t -> Core.Adaptive.tier_name t
    | None -> "?")

(* chains have a closed-form optimum under left-deep C_out reasoning?
   no — but a chain partition stitches blocks of consecutive
   relations, and with block_size >= n the partitioned tier must again
   equal exact DPhyp even when entered through the public Partition
   algorithm of the Optimizer. *)
let test_optimizer_partition_algo () =
  let g = Workloads.Shapes.chain 12 in
  let rp = Opt.run (Opt.Partition { k = 16 }) g in
  let re = Opt.run Opt.Dphyp g in
  match (rp.Opt.plan, re.Opt.plan) with
  | Some p, Some e ->
      check "partition algo reachable via Optimizer.run" true
        (p.Plans.Plan.cost >= e.Plans.Plan.cost *. (1. -. 1e-9))
  | _ -> Alcotest.fail "missing plan"

let () =
  Alcotest.run "widening"
    [
      ( "ops_differential",
        [
          q prop_ops_differential;
          q prop_constructors_differential;
          q prop_subset_enum_differential;
        ] );
      ( "wide_model",
        [
          q prop_wide_model;
          Alcotest.test_case "word boundaries" `Quick test_word_boundaries;
        ] );
      ( "dphyp_differential",
        [ q prop_dphyp_trace_differential; q prop_dphyp_cost_differential ] );
      ("fingerprint", [ q prop_fingerprint_differential ]);
      ( "partition",
        [
          q prop_partition_blocks_invariants;
          q prop_partition_single_block_exact;
          q prop_partition_bounded_by_exact;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "adaptive routes wide graphs" `Quick
            test_adaptive_routes_wide;
          Alcotest.test_case "62/63 boundary" `Quick
            test_boundary_63_relations;
          Alcotest.test_case "Optimizer.run Partition" `Quick
            test_optimizer_partition_algo;
        ] );
    ]
