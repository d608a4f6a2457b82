(* Cross-algorithm differential harness.

   Every exact enumerator must agree on the optimal cost over random
   graphs; IDP-k must reproduce the exact optimum at k >= n, stay
   valid (Plan_check) and no better than the optimum below it; the
   adaptive ladder must be exact when unbudgeted, deterministic under
   a budget, and degrade to a non-exact tier on queries whose exact
   enumeration blows the budget.  DPhyp's ccp_emitted counter is
   pinned to the brute-force csg-cmp-pair count so the hot-path
   indexes cannot silently change what is enumerated. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer
module D = Driver.Pipeline

let check = Alcotest.(check bool)

let cost_of name (r : Opt.result) =
  match r.plan with
  | Some p -> p.Plans.Plan.cost
  | None -> Alcotest.failf "%s: no plan" name

let close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let random_simple seed =
  Workloads.Random_graphs.simple ~seed ~n:(4 + (seed mod 4))
    ~extra_edges:(seed mod 3) ()

let random_hyper seed =
  Workloads.Random_graphs.hyper ~seed ~n:(5 + (seed mod 3)) ~extra_edges:2
    ~hyperedges:2 ~max_hypernode:3 ()

(* The adaptive ladder's dense band, restated: simple inner edges and
   at least 40% of the complete graph's edges (every graph here is
   narrower than a small node set). *)
let in_dense_band g =
  let n = G.num_nodes g in
  Core.Dpconv.simple_inner g
  && float_of_int (G.num_edges g) >= 0.4 *. float_of_int (n * (n - 1) / 2)

(* The deterministic differential suite: named shapes, hyperedge split
   families, and a band of random hypergraphs. *)
let suite_graphs () =
  [
    ("chain7", Workloads.Shapes.chain 7);
    ("cycle8", Workloads.Shapes.cycle 8);
    ("star6", Workloads.Shapes.star 6);
    ("clique6", Workloads.Shapes.clique 6);
    ("grid2x4", Workloads.Shapes.grid ~rows:2 ~cols:4 ());
  ]
  @ List.mapi
      (fun i g -> (Printf.sprintf "cycle6-split%d" i, g))
      (Workloads.Splits.cycle_based 6)
  @ List.init 10 (fun i ->
        (Printf.sprintf "random-hyper-%d" i, random_hyper (i * 977)))

(* ---------- exact algorithms agree ---------- *)

let exact_algos = [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Topdown; Opt.Tdpart ]

(* On disagreement, fail with the aligned structural diff of the two
   plans — which shared subtree first went a different way is far more
   actionable than two scalar costs. *)
let agree_on name g algos =
  let ref_r = Opt.run Opt.Dphyp g in
  let reference = cost_of name ref_r in
  List.for_all
    (fun algo ->
      let r = Opt.run algo g in
      let c = cost_of (name ^ "/" ^ Opt.name algo) r in
      close reference c
      ||
      match (ref_r.plan, r.plan) with
      | Some p1, Some p2 ->
          let names i = (G.relation g i).G.name in
          QCheck.Test.fail_report
            (Printf.sprintf "%s: dphyp cost %.6g vs %s cost %.6g\n%s" name
               reference (Opt.name algo) c
               (Plans.Plan_diff.report ~names
                  ~labels:("dphyp", Opt.name algo)
                  p1 p2))
      | _ -> false)
    algos

let prop_exact_agree_simple =
  QCheck.Test.make
    ~name:"all exact algorithms (incl. dpccp) agree on random simple graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_simple seed in
      agree_on "simple" g (Opt.Dpccp :: exact_algos))

let prop_exact_agree_hyper =
  QCheck.Test.make ~name:"all exact algorithms agree on random hypergraphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed -> agree_on "hyper" (random_hyper seed) exact_algos)

(* ---------- IDP ---------- *)

let prop_idp_exact_when_k_covers =
  QCheck.Test.make ~name:"idp with k >= n reproduces the exact optimum"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let exact = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
      let idp = cost_of "idp" (Opt.run (Opt.Idp { k = G.num_nodes g }) g) in
      close exact idp)

let prop_idp_valid_and_no_better =
  QCheck.Test.make
    ~name:"idp k=3 plans pass Plan_check and cost >= exact optimum" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let exact = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
      match (Opt.run (Opt.Idp { k = 3 }) g).plan with
      | None -> QCheck.Test.fail_report "idp k=3 found no plan"
      | Some p ->
          Plans.Plan_check.check g p = []
          && Ns.equal p.Plans.Plan.set (G.all_nodes g)
          && p.Plans.Plan.cost >= exact -. 1e-9 *. exact)

(* ---------- ccp_emitted pinned to brute force ---------- *)

let prop_ccp_counter_pinned =
  QCheck.Test.make
    ~name:"dphyp ccp_emitted = brute-force csg-cmp-pair count" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let r = Opt.run Opt.Dphyp g in
      r.Opt.counters.Core.Counters.ccp_emitted
      = Hypergraph.Csg_enum.count_csg_cmp_pairs g)

(* ---------- adaptive ---------- *)

let prop_adaptive_unlimited_exact =
  QCheck.Test.make
    ~name:"adaptive without budget = exact dphyp on random hypergraphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_hyper seed in
      let r = Opt.run Opt.Adaptive g in
      r.Opt.tier = Some Core.Adaptive.Exact
      && close (cost_of "adaptive" r) (cost_of "dphyp" (Opt.run Opt.Dphyp g)))

let test_adaptive_suite_unlimited () =
  List.iter
    (fun (name, g) ->
      let r = Opt.run Opt.Adaptive g in
      check (name ^ ": tier exact") true (r.Opt.tier = Some Core.Adaptive.Exact);
      Alcotest.(check (float 1e-6))
        (name ^ ": adaptive cost = dphyp cost")
        (cost_of name (Opt.run Opt.Dphyp g))
        (cost_of name r))
    (suite_graphs ())

let test_adaptive_clique20_budget () =
  let g = Workloads.Shapes.clique 20 in
  let budget = 50_000 in
  let r = Opt.run ~budget Opt.Adaptive g in
  (match r.Opt.tier with
  | None -> Alcotest.fail "adaptive reported no tier"
  | Some Core.Adaptive.Exact ->
      Alcotest.fail "exact cannot fit a 20-clique in a 50k-pair budget"
  | Some _ -> ());
  match r.Opt.plan with
  | None -> Alcotest.fail "adaptive returned no plan"
  | Some p ->
      check "covers all 20 relations" true
        (Ns.equal p.Plans.Plan.set (G.all_nodes g));
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "plan check: %s"
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      (* determinism: the budget is counted in pairs, not seconds, so a
         rerun reproduces the tier, the work and the plan exactly *)
      let r' = Opt.run ~budget Opt.Adaptive g in
      check "same tier on rerun" true (r'.Opt.tier = r.Opt.tier);
      Alcotest.(check int)
        "same work on rerun"
        r.Opt.counters.Core.Counters.pairs_considered
        r'.Opt.counters.Core.Counters.pairs_considered;
      Alcotest.(check string)
        "same plan on rerun"
        (Plans.Plan.to_string p)
        (Plans.Plan.to_string (Option.get r'.Opt.plan))

(* The ladder history as `--profile` and explain print it: GOO's plan
   bounding the exact rung on dense cliques and answering when that
   rung runs out (GOO listed once, last, as the winner), and a
   certified exact skip followed by the IDP rungs on a sparse star. *)
let test_adaptive_attempts_pinned () =
  let attempts g budget =
    let r = Opt.run ~budget Opt.Adaptive g in
    Format.asprintf "%a" Core.Adaptive.pp_attempts r.Opt.attempts
  in
  Alcotest.(check string) "clique-12, budget 5000"
    "exact(5001 pairs, budget ran out) -> greedy(286 pairs)"
    (attempts (Workloads.Shapes.clique 12) 5_000);
  Alcotest.(check string) "clique-20, budget 50000"
    "exact(50001 pairs, budget ran out) -> greedy(1330 pairs)"
    (attempts (Workloads.Shapes.clique 20) 50_000);
  Alcotest.(check string) "clique-10, budget 10000"
    "greedy(165 pairs) -> exact(4255 pairs)"
    (attempts (Workloads.Shapes.clique 10) 10_000);
  Alcotest.(check string) "star-10, budget 2000"
    "exact(skipped: needs ≥ 5120 pairs > budget 2000) -> \
     idp-10(2001 pairs, budget ran out) -> idp-7(224 pairs)"
    (attempts (Workloads.Shapes.star 10) 2_000)

(* The dense band: GOO runs first and its cost prunes the exact rung
   without changing its answer; a sparse graph of the same size never
   enters the band. *)
let test_dense_band_prunes () =
  let g = Workloads.Shapes.clique 12 in
  let dphyp = Opt.run Opt.Dphyp g and r = Opt.run Opt.Adaptive g in
  Alcotest.(check string)
    "adaptive (bound-pruned exact) = plain exact"
    (Plans.Plan.to_string (Option.get dphyp.Opt.plan))
    (Plans.Plan.to_string (Option.get r.Opt.plan));
  check "exact tier won" true (r.Opt.tier = Some Core.Adaptive.Exact);
  Alcotest.(check string) "greedy first, then the pruned rung"
    "greedy(286 pairs) -> exact(29605 pairs)"
    (Format.asprintf "%a" Core.Adaptive.pp_attempts r.Opt.attempts);
  check "the bound prunes (261625 pairs unpruned)" true
    (r.Opt.counters.Core.Counters.pairs_considered
    < dphyp.Opt.counters.Core.Counters.pairs_considered);
  let r2 = Opt.run Opt.Adaptive (Workloads.Shapes.cycle 12) in
  check "no greedy attempt on a sparse graph" true
    (List.for_all
       (fun (a : Core.Adaptive.attempt) ->
         a.Core.Adaptive.tier <> Core.Adaptive.Greedy)
       r2.Opt.attempts)

(* A budget too small for the bounded exact rung: GOO's plan, already
   in hand, answers instead of degrading to IDP. *)
let test_dense_band_greedy_answers () =
  let g = Workloads.Shapes.clique 12 in
  let exact = cost_of "clique12/dphyp" (Opt.run Opt.Dphyp g) in
  let r = Opt.run ~budget:5_000 Opt.Adaptive g in
  check "greedy tier won under budget" true
    (r.Opt.tier = Some Core.Adaptive.Greedy);
  Alcotest.(check string)
    "GOO's plan"
    (Plans.Plan.to_string (Option.get (Core.Goo.solve g)))
    (Plans.Plan.to_string (Option.get r.Opt.plan));
  Alcotest.(check string) "cost" "5.047e+07"
    (Printf.sprintf "%.4g" (cost_of "clique12/adaptive-budget" r));
  check "GOO's plan bounds the optimum" true
    (cost_of "clique12/adaptive-budget" r >= exact)

(* Without a budget the ladder's answer is DPhyp's, byte for byte,
   whether GOO's cost prunes the exact rung (dense band) or not.
   Graphs of up to 11 relations range over every density; wider ones
   stay sparse, where unpruned DPhyp is cheap. *)
let prop_adaptive_unlimited_same_plan =
  QCheck.Test.make
    ~name:"adaptive without budget = dphyp's plan, in and out of the dense band"
    ~count:80
    QCheck.(pair (int_bound 10_000) (int_bound 100))
    (fun (seed, pct) ->
      let n = 2 + (seed mod 13) in
      let chords = (n * (n - 1) / 2) - (n - 1) in
      let pct = if n > 11 then pct mod 15 else pct in
      let g =
        Workloads.Random_graphs.simple ~seed ~n
          ~extra_edges:(2 * chords * pct / 100) ()
      in
      List.for_all
        (fun (model : Costing.Cost_model.t) ->
          let plan algo =
            Plans.Plan.to_string (Option.get (Opt.run ~model algo g).Opt.plan)
          in
          let a = plan Opt.Adaptive and d = plan Opt.Dphyp in
          a = d
          || QCheck.Test.fail_reportf "%s, n=%d, band=%b: adaptive %s, dphyp %s"
               model.name n (in_dense_band g) a d)
        [ Costing.Cost_model.c_out; Costing.Cost_model.c_mm ])

(* In the dense band GOO's plan is the floor: at any budget the ladder
   answers with GOO's plan or a cheaper one.  Cliques of 4-20
   relations and random dense graphs, at a random budget and at
   10,000 pairs. *)
let prop_dense_band_within_goo =
  QCheck.Test.make ~name:"dense band: ladder cost <= GOO's at any budget"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 20_000))
    (fun (seed, budget) ->
      let n = 4 + (seed mod 17) in
      List.for_all
        (fun g ->
          (not (in_dense_band g))
          ||
          let goo = (Option.get (Core.Goo.solve g)).Plans.Plan.cost in
          List.for_all
            (fun budget ->
              let c = cost_of "adaptive" (Opt.run ~budget Opt.Adaptive g) in
              c <= goo *. (1. +. 1e-9)
              || QCheck.Test.fail_reportf "n=%d, budget %d: ladder %g > GOO %g"
                   n budget c goo)
            [ budget; 10_000 ])
        [
          Workloads.Shapes.clique n;
          Workloads.Random_graphs.simple ~seed ~n ~extra_edges:(n * n) ();
        ])

let test_adaptive_budget_one_falls_to_goo () =
  (* a budget too small for any DP rung must still produce a plan *)
  let g = Workloads.Shapes.clique 8 in
  let r = Opt.run ~budget:1 Opt.Adaptive g in
  check "greedy tier" true (r.Opt.tier = Some Core.Adaptive.Greedy);
  match r.Opt.plan with
  | None -> Alcotest.fail "goo fallback returned no plan"
  | Some p ->
      check "covers all" true (Ns.equal p.Plans.Plan.set (G.all_nodes g))

(* ---------- certified overrun skip ---------- *)

let ladder_pairs (r : Opt.result) =
  List.fold_left (fun acc (a : Core.Adaptive.attempt) -> acc + a.pairs) 0
    r.Opt.attempts

let plan_digest (r : Opt.result) =
  Digest.to_hex (Digest.string (Plans.Plan.to_string (Option.get r.Opt.plan)))

(* The star's 7.8e9 csg-cmp-pairs are certified before the exact rung
   starts, so it is skipped; idp-10 answers exactly as it did after
   the full exact attempt ran out (counters and plan digest pinned
   from that run). *)
let test_skip_star29 () =
  let g = Workloads.Shapes.star 29 in
  let r = Opt.run ~budget:1_000_000 Opt.Adaptive g in
  check "idp-10 answers" true (r.Opt.tier = Some (Core.Adaptive.Idp_k 10));
  Alcotest.(check string)
    "winning counters"
    "pairs=6916 ccp=6916 cost-calls=6916 neighborhoods=10054"
    (let c = r.Opt.counters in
     Printf.sprintf "pairs=%d ccp=%d cost-calls=%d neighborhoods=%d"
       c.Core.Counters.pairs_considered c.ccp_emitted c.cost_calls
       c.neighborhood_calls);
  Alcotest.(check string)
    "same plan" "e4f617cc4b7c58a782aa71516deeb260" (plan_digest r);
  match r.Opt.attempts with
  | [ exact; idp ] ->
      check "exact skipped with its certificate" true
        (exact.Core.Adaptive.tier = Core.Adaptive.Exact
        && (not exact.completed) && exact.pairs = 0
        && exact.skipped = Some (7_784_628_224, 1_000_000));
      check "idp-10 ran" true
        (idp.Core.Adaptive.tier = Core.Adaptive.Idp_k 10
        && idp.completed && idp.pairs = 6916 && idp.skipped = None)
  | _ -> Alcotest.fail "expected two attempts: exact (skipped), idp-10"

(* Clique-20 is in the dense band, so GOO's cost bounds its exact rung
   and the certificate (4,980,736 pairs) does not apply: the bounded
   rung runs out of its 50k budget and GOO's plan answers, at 3.02e4
   where the skip-then-IDP ladder answered at 2.42e12. *)
let test_skip_clique20 () =
  let g = Workloads.Shapes.clique 20 in
  let r = Opt.run ~budget:50_000 Opt.Adaptive g in
  check "greedy answers" true (r.Opt.tier = Some Core.Adaptive.Greedy);
  Alcotest.(check int) "winner pairs" 1330
    r.Opt.counters.Core.Counters.pairs_considered;
  Alcotest.(check string)
    "GOO's plan"
    (Plans.Plan.to_string (Option.get (Core.Goo.solve g)))
    (Plans.Plan.to_string (Option.get r.Opt.plan));
  Alcotest.(check string) "cost" "3.02e+04"
    (Printf.sprintf "%.3g" (cost_of "clique-20" r));
  check "the answer carries the budget" true
    (Core.Counters.budget r.Opt.counters = Some 50_000);
  (* the bounded exact rung that ran out and GOO, counted once (was
     52,900: exact skipped, idp-10 ran out, idp-7 answered) *)
  Alcotest.(check int) "ladder pairs" 51_331 (ladder_pairs r)

(* The certificate counts an unpruned run, so it says nothing about
   the exact rung GOO's cost bound prunes on a dense graph: on
   clique-12 that rung runs even though min_pairs (11264) exceeds the
   budget. *)
let test_no_skip_when_bounded () =
  let g = Workloads.Shapes.clique 12 in
  check "certificate exceeds the budget" true (Core.Dphyp.min_pairs g > 5_000);
  let r = Opt.run ~budget:5_000 Opt.Adaptive g in
  match r.Opt.attempts with
  | [ exact; _answer ] ->
      check "bound-pruned exact ran" true
        (exact.Core.Adaptive.tier = Core.Adaptive.Exact
        && exact.skipped = None && exact.pairs = 5_001)
  | _ -> Alcotest.fail "expected exact, greedy"

(* The skipped rung still shows in the trace and spans, but it has no
   latency sample: it never ran. *)
let test_skip_observed () =
  let ctx = Obs.Span.create () and tel = Obs.Export.create () in
  ignore
    (Driver.Pipeline.optimize_graph ~obs:ctx ~tel ~algo:Opt.Adaptive
       ~budget:1_000_000 (Workloads.Shapes.star 29));
  (match
     List.find_opt
       (fun (sp : Obs.Span.span) -> sp.name = "tier:exact")
       (Obs.Span.spans ctx)
   with
  | None -> Alcotest.fail "no tier:exact span"
  | Some sp ->
      check "skipped tag" true
        (List.assoc_opt "skipped" sp.attrs = Some (Obs.Span.Bool true));
      check "min_pairs attribute" true
        (List.assoc_opt "min_pairs" sp.attrs
        = Some (Obs.Span.Int 7_784_628_224)));
  let prom = Obs.Export.prometheus tel in
  check "idp-10 latency sampled" true (contains_sub prom "tier=\"idp-10\"");
  check "no exact latency sample" false (contains_sub prom "tier=\"exact\"")

(* ---------- large-query tiers, pinned byte for byte ---------- *)

let counters_line (c : Core.Counters.t) =
  Printf.sprintf "pairs=%d ccp=%d cost-calls=%d neighborhoods=%d"
    c.Core.Counters.pairs_considered c.ccp_emitted c.cost_calls
    c.neighborhood_calls

let attempts_line attempts =
  String.concat "; "
    (List.map
       (fun (a : Core.Adaptive.attempt) ->
         Printf.sprintf "%s:%b:%d" (Core.Adaptive.tier_name a.tier)
           a.completed a.pairs)
       attempts)

(* Wide graphs enter the ladder at the partitioned tier, which
   answers within a 1M budget: per-block exact DP, then the IDP
   stitching rounds.  Plans, counters and attempts pinned. *)
let test_partitioned_pins () =
  List.iter
    (fun (name, g, digest, counters, attempts) ->
      let r = Opt.run ~budget:1_000_000 Opt.Adaptive g in
      Alcotest.(check string) (name ^ " plan") digest (plan_digest r);
      Alcotest.(check string)
        (name ^ " counters") counters
        (counters_line r.Opt.counters);
      Alcotest.(check string)
        (name ^ " attempts") attempts
        (attempts_line r.Opt.attempts))
    [
      ( "snowflake-80",
        Workloads.Shapes.snowflake_n 80,
        "17e18ffd16b32b87a4abefa7ce16af54",
        "pairs=9676 ccp=9676 cost-calls=9676 neighborhoods=14584",
        "partitioned:true:9676" );
      ( "star-100",
        Workloads.Shapes.star 100,
        "7d5a4f446ae0b286a9a82f3d2bce09b5",
        "pairs=25345 ccp=25345 cost-calls=25345 neighborhoods=36813",
        "partitioned:true:25345" );
      ( "chain-160",
        Workloads.Shapes.chain 160,
        "275c02be30e406a8e0bb07dbbc24601d",
        "pairs=2230 ccp=2230 cost-calls=2230 neighborhoods=3950",
        "partitioned:true:2230" );
      ( "grid-8x8",
        Workloads.Shapes.grid ~rows:8 ~cols:8 (),
        "9252cadb4a9b415cc89d8822664741fe",
        "pairs=5865 ccp=5865 cost-calls=5865 neighborhoods=8027",
        "partitioned:true:5865" );
    ]

(* [-a partition] without k is the ladder's partitioned tier. *)
let test_partition_is_partitioned_tier () =
  List.iter
    (fun (name, g) ->
      let p = Opt.run (Option.get (Opt.of_name "partition")) g
      and a = Core.Adaptive.solve g in
      check (name ^ " partitioned tier") true
        (a.Core.Adaptive.tier = Core.Adaptive.Partitioned);
      Alcotest.(check string)
        (name ^ " plan")
        (Digest.to_hex
           (Digest.string (Plans.Plan.to_string (Option.get a.Core.Adaptive.plan))))
        (plan_digest p);
      Alcotest.(check string)
        (name ^ " counters")
        (counters_line a.Core.Adaptive.counters)
        (counters_line p.Opt.counters))
    [
      ("snowflake-80", Workloads.Shapes.snowflake_n 80);
      ("star-100", Workloads.Shapes.star 100);
    ]

(* k < 2 is refused before any block is solved, whether or not one
   block would cover the graph. *)
let test_k_checked_first () =
  List.iter
    (fun n ->
      let g = Workloads.Shapes.chain n in
      List.iter
        (fun (name, solve) ->
          let counters = Core.Counters.create () in
          (match solve counters g with
          | _ -> Alcotest.failf "%s chain-%d: k = 1 accepted" name n
          | exception Invalid_argument _ -> ());
          Alcotest.(check int)
            (Printf.sprintf "%s chain-%d: no pair before the check" name n)
            0 counters.Core.Counters.pairs_considered)
        [
          ("partition", fun counters g -> Core.Partition.solve ~counters ~k:1 g);
          ("idp", fun counters g -> Core.Idp.solve ~counters ~k:1 g);
        ])
    [ 8; 70 ]

let with_free g i free =
  G.make
    (Array.init (G.num_nodes g) (fun j ->
         let r = G.relation g j in
         if j = i then { r with G.free } else r))
    (G.edges g)

let derived tree = Conflicts.Derive.hypergraph (Conflicts.Analysis.analyze tree)

(* Random graphs of 20-120 relations — simple, with hyperedges,
   derived from antijoin and outer-join trees, and with free sets —
   through Partition at block sizes 4 and 10 and IDP at k = 3, 5, 7
   and 10.  Each run's plan digest (structure and cost) and all five
   counters are pinned: block DPs run on induced subgraphs, and must
   decide exactly what DPhyp confined to the block inside the whole
   graph decides. *)
let large_corpus () =
  let simple seed n extra =
    Workloads.Random_graphs.simple ~seed ~n ~extra_edges:extra ()
  in
  let hyper seed n =
    Workloads.Random_graphs.hyper ~seed ~n ~extra_edges:(n / 10)
      ~hyperedges:3 ~max_hypernode:2 ()
  in
  [
    ("simple-20", simple 11 20 4);
    ("simple-45", simple 12 45 6);
    ("simple-70", simple 13 70 8);
    ("simple-120", simple 14 120 10);
    ("hyper-30", hyper 21 30);
    ("hyper-90", hyper 22 90);
    ( "antijoins-24",
      derived (Workloads.Noninner.star_antijoins ~n_rel:24 ~k:6 ()) );
    ( "outerjoins-30",
      derived (Workloads.Noninner.cycle_outerjoins ~n_rel:30 ~k:5 ()) );
    ( "free-40",
      let g = simple 31 40 5 in
      with_free (with_free g 7 (G.simple_neighbors g 7 |> Ns.min_set)) 30
        (G.simple_neighbors g 30 |> Ns.min_set) );
    ( "free-hyper-64",
      let g = hyper 32 64 in
      with_free g 50 (G.simple_neighbors g 50 |> Ns.min_set) );
  ]

let large_runs =
  [
    ( "partition-4",
      fun counters g -> Core.Partition.solve ~counters ~block_size:4 g );
    ( "partition-10",
      fun counters g -> Core.Partition.solve ~counters ~block_size:10 g );
    ("idp-3", fun counters g -> Core.Idp.solve ~counters ~k:3 g);
    ("idp-5", fun counters g -> Core.Idp.solve ~counters ~k:5 g);
    ("idp-7", fun counters g -> Core.Idp.solve ~counters ~k:7 g);
    ("idp-10", fun counters g -> Core.Idp.solve ~counters ~k:10 g);
  ]

let large_run_line solve g =
  let counters = Core.Counters.create () in
  let digest =
    match solve counters g with
    | None -> "none"
    | Some (p : Plans.Plan.t) ->
        Digest.to_hex
          (Digest.string
             (Printf.sprintf "%s %h" (Plans.Plan.to_string p) p.cost))
  in
  let c = counters in
  Printf.sprintf "%s pairs=%d ccp=%d cost-calls=%d filtered=%d neighborhoods=%d"
    digest c.Core.Counters.pairs_considered c.ccp_emitted c.cost_calls
    c.filter_rejected c.neighborhood_calls

let test_large_corpus_pins () =
  let corpus = large_corpus () in
  List.iter
    (fun (gname, rname, expected) ->
      let solve = List.assoc rname large_runs in
      Alcotest.(check string)
        (gname ^ " " ^ rname)
        expected
        (large_run_line solve (List.assoc gname corpus)))
    [
      ("simple-20", "partition-4", "54ea01a7d9130ebdfef70561b1c58a89 pairs=205 ccp=205 cost-calls=205 filtered=0 neighborhoods=399");
      ("simple-20", "partition-10", "b08b24c47e2d237ea1c7b47a175f9285 pairs=479 ccp=479 cost-calls=479 filtered=0 neighborhoods=785");
      ("simple-20", "idp-3", "63143b7d254a8957edd01af366a95c7d pairs=37 ccp=37 cost-calls=37 filtered=0 neighborhoods=151");
      ("simple-20", "idp-5", "0c54926a53933657d05d35d6528dc39d pairs=119 ccp=119 cost-calls=119 filtered=0 neighborhoods=283");
      ("simple-20", "idp-7", "14c93c22bebd086225281e50d8c2df85 pairs=473 ccp=473 cost-calls=473 filtered=0 neighborhoods=795");
      ("simple-20", "idp-10", "f2ed2aa32f5b86aa638a0a5b73a567f6 pairs=1565 ccp=1565 cost-calls=1565 filtered=0 neighborhoods=2231");
      ("simple-45", "partition-4", "30072edbf4ba5bf985995276a58581c4 pairs=1886 ccp=1886 cost-calls=1886 filtered=0 neighborhoods=2876");
      ("simple-45", "partition-10", "132706d774a6aee3343b6721ecb0eed4 pairs=1700 ccp=1700 cost-calls=1700 filtered=0 neighborhoods=2650");
      ("simple-45", "idp-3", "1df177a8535c27fdbd6e50bde58b3fa3 pairs=90 ccp=90 cost-calls=90 filtered=0 neighborhoods=356");
      ("simple-45", "idp-5", "c15ddf1a70bbb704a0a092889546d980 pairs=252 ccp=252 cost-calls=252 filtered=0 neighborhoods=606");
      ("simple-45", "idp-7", "c88d4531ff3615a0cb526ec77a12b0e1 pairs=628 ccp=628 cost-calls=628 filtered=0 neighborhoods=1172");
      ("simple-45", "idp-10", "83fe984c3789ea7da888a0fbcc7906e3 pairs=2163 ccp=2163 cost-calls=2163 filtered=0 neighborhoods=3271");
      ("simple-70", "partition-4", "92ca810053da1d10db857511687f575f pairs=2120 ccp=2120 cost-calls=2120 filtered=0 neighborhoods=3334");
      ("simple-70", "partition-10", "90050c2db005cdb9f5d0248fdb809fe9 pairs=3068 ccp=3068 cost-calls=3068 filtered=0 neighborhoods=4680");
      ("simple-70", "idp-3", "b82505bdcf8efe5701a90b5a136b1f91 pairs=137 ccp=137 cost-calls=137 filtered=0 neighborhoods=551");
      ("simple-70", "idp-5", "b91d2b2da9e86a611829bc427fc1aeec pairs=385 ccp=385 cost-calls=385 filtered=0 neighborhoods=935");
      ("simple-70", "idp-7", "a435716b96eb81010b65de192d8cffba pairs=974 ccp=974 cost-calls=974 filtered=0 neighborhoods=1804");
      ("simple-70", "idp-10", "fd5f477209031a3984aa298a7bf03261 pairs=3663 ccp=3663 cost-calls=3663 filtered=0 neighborhoods=5485");
      ("simple-120", "partition-4", "35d05e07a20434f1f63dfd104fdced73 pairs=5394 ccp=5394 cost-calls=5394 filtered=0 neighborhoods=8276");
      ("simple-120", "partition-10", "868ce70982c619a4c7405eff69ac56e8 pairs=9526 ccp=9526 cost-calls=9526 filtered=0 neighborhoods=14178");
      ("simple-120", "idp-3", "9ba2d96aa69de95959f8c7d63b7aad10 pairs=239 ccp=239 cost-calls=239 filtered=0 neighborhoods=955");
      ("simple-120", "idp-5", "3e137f4489ff956baf94be0b1e068b0b pairs=704 ccp=704 cost-calls=704 filtered=0 neighborhoods=1686");
      ("simple-120", "idp-7", "73a8c5ccbf9e8bdb61e8c42714df3f1e pairs=2052 ccp=2052 cost-calls=2052 filtered=0 neighborhoods=3706");
      ("simple-120", "idp-10", "4182b0ab1846e49a3591f9539a116026 pairs=8025 ccp=8025 cost-calls=8025 filtered=0 neighborhoods=11839");
      ("hyper-30", "partition-4", "4dac6d59a7eb0ba26c6e738792be4c53 pairs=1428 ccp=1396 cost-calls=1396 filtered=0 neighborhoods=2232");
      ("hyper-30", "partition-10", "1856643a3279706262eae7d0651ab13a pairs=1822 ccp=1808 cost-calls=1808 filtered=0 neighborhoods=2772");
      ("hyper-30", "idp-3", "786a8c8a7aa4c8e87c6a444d0e1832db pairs=63 ccp=63 cost-calls=63 filtered=0 neighborhoods=323");
      ("hyper-30", "idp-5", "12f6c3d4888ae452da79e12f6bdeca77 pairs=138 ccp=138 cost-calls=138 filtered=0 neighborhoods=396");
      ("hyper-30", "idp-7", "0e1a49fee163cb1a8dbf395649042b58 pairs=275 ccp=275 cost-calls=275 filtered=0 neighborhoods=667");
      ("hyper-30", "idp-10", "ca36411312b9ad4ad3bf9691a6087450 pairs=1035 ccp=1035 cost-calls=1035 filtered=0 neighborhoods=1763");
      ("hyper-90", "partition-4", "ca03fe6237021d2396e4f57ac703296e pairs=1388 ccp=1388 cost-calls=1388 filtered=0 neighborhoods=2640");
      ("hyper-90", "partition-10", "1e95f0915e8a8c71f957bcf68ad5402e pairs=2916 ccp=2905 cost-calls=2905 filtered=0 neighborhoods=4740");
      ("hyper-90", "idp-3", "806695d0b7d78e529e8707af59904565 pairs=187 ccp=187 cost-calls=187 filtered=0 neighborhoods=879");
      ("hyper-90", "idp-5", "db3b4dbe1327fb98d0f5a9cb230acf3b pairs=506 ccp=506 cost-calls=506 filtered=0 neighborhoods=1270");
      ("hyper-90", "idp-7", "6c5c7729a96527a77adc350aa0dac597 pairs=1207 ccp=1207 cost-calls=1207 filtered=0 neighborhoods=2409");
      ("hyper-90", "idp-10", "9ef440ff10d14b0b019422489ca669a4 pairs=6327 ccp=6327 cost-calls=6327 filtered=0 neighborhoods=9181");
      ("antijoins-24", "partition-4", "6fcd36f08f7a1e21e5da73917165b763 pairs=4624 ccp=4624 cost-calls=4624 filtered=0 neighborhoods=6742");
      ("antijoins-24", "partition-10", "6fcd36f08f7a1e21e5da73917165b763 pairs=4688 ccp=4688 cost-calls=4688 filtered=0 neighborhoods=6846");
      ("antijoins-24", "idp-3", "6fcd36f08f7a1e21e5da73917165b763 pairs=45 ccp=45 cost-calls=45 filtered=0 neighborhoods=183");
      ("antijoins-24", "idp-5", "6fcd36f08f7a1e21e5da73917165b763 pairs=172 ccp=172 cost-calls=172 filtered=0 neighborhoods=394");
      ("antijoins-24", "idp-7", "6fcd36f08f7a1e21e5da73917165b763 pairs=656 ccp=656 cost-calls=656 filtered=0 neighborhoods=1150");
      ("antijoins-24", "idp-10", "6fcd36f08f7a1e21e5da73917165b763 pairs=4688 ccp=4688 cost-calls=4688 filtered=0 neighborhoods=6846");
      ("outerjoins-30", "partition-4", "d90d828a9a034965c06a13a930b6ab06 pairs=59 ccp=59 cost-calls=59 filtered=0 neighborhoods=197");
      ("outerjoins-30", "partition-10", "d90d828a9a034965c06a13a930b6ab06 pairs=59 ccp=59 cost-calls=59 filtered=0 neighborhoods=197");
      ("outerjoins-30", "idp-3", "d90d828a9a034965c06a13a930b6ab06 pairs=33 ccp=33 cost-calls=33 filtered=0 neighborhoods=803");
      ("outerjoins-30", "idp-5", "5bff5813769316e1bedfc22400e5a60b pairs=45 ccp=45 cost-calls=45 filtered=0 neighborhoods=807");
      ("outerjoins-30", "idp-7", "d90d828a9a034965c06a13a930b6ab06 pairs=59 ccp=59 cost-calls=59 filtered=0 neighborhoods=709");
      ("outerjoins-30", "idp-10", "d90d828a9a034965c06a13a930b6ab06 pairs=59 ccp=59 cost-calls=59 filtered=0 neighborhoods=529");
      ("free-40", "partition-4", "928b9c750dec4c479f2b60a69a9c488f pairs=1189 ccp=1189 cost-calls=1189 filtered=0 neighborhoods=1855");
      ("free-40", "partition-10", "9db7cd0ccb957ac80c8b7c74c8d1d0f5 pairs=1040 ccp=1040 cost-calls=1040 filtered=0 neighborhoods=1682");
      ("free-40", "idp-3", "c9771f965cdfa5ebc0b83ecebbe6f688 pairs=77 ccp=77 cost-calls=77 filtered=0 neighborhoods=311");
      ("free-40", "idp-5", "6df3a7b661cdd53afa62b2e3fd6391ea pairs=243 ccp=243 cost-calls=243 filtered=0 neighborhoods=573");
      ("free-40", "idp-7", "85106ce26dc340ebaeb5f12d3b074ef4 pairs=678 ccp=678 cost-calls=678 filtered=0 neighborhoods=1216");
      ("free-40", "idp-10", "11c148d53b7e56d3a94ee1025b84de2f pairs=2301 ccp=2301 cost-calls=2301 filtered=0 neighborhoods=3421");
      ("free-hyper-64", "partition-4", "646db3d5f077390124951f61401ca6bd pairs=2000 ccp=1992 cost-calls=1992 filtered=0 neighborhoods=3258");
      ("free-hyper-64", "partition-10", "4d4d2333d47cb678a07331c4a5ac1af1 pairs=4340 ccp=4334 cost-calls=4334 filtered=0 neighborhoods=6486");
      ("free-hyper-64", "idp-3", "a084b4116f527aa36f22eda22a3df59f pairs=128 ccp=125 cost-calls=125 filtered=0 neighborhoods=747");
      ("free-hyper-64", "idp-5", "4e7528e84d931cb1d122165187ca1b93 pairs=338 ccp=322 cost-calls=322 filtered=0 neighborhoods=1012");
      ("free-hyper-64", "idp-7", "90a1a8ae20c0fbb011f63f8359da1899 pairs=920 ccp=916 cost-calls=916 filtered=0 neighborhoods=1768");
      ("free-hyper-64", "idp-10", "2ba3c07d0fa8edfe50cea7fca84b585f pairs=3904 ccp=3841 cost-calls=3841 filtered=0 neighborhoods=5841");
    ]

(* On star-hyper-16 at split level 4, IDP-3's blocks are straddled by
   complex edges five times; each stuck round widens its block. *)
let test_idp_widening_pin () =
  let g = List.nth (Workloads.Splits.star_based 16) 4 in
  let counters = Core.Counters.create () and ctx = Obs.Span.create () in
  let plan = Option.get (Core.Idp.solve ~obs:ctx ~counters ~k:3 g) in
  Alcotest.(check string)
    "plan" "29bee7c6932524219d9f0d4d286c15a0"
    (Digest.to_hex (Digest.string (Plans.Plan.to_string plan)));
  Alcotest.(check string)
    "counters" "pairs=92 ccp=92 cost-calls=92 neighborhoods=268"
    (counters_line counters);
  let spans = Obs.Span.spans ctx in
  Alcotest.(check int) "rounds" 11 (List.length spans);
  Alcotest.(check int)
    "widened rounds" 5
    (List.length
       (List.filter
          (fun (s : Obs.Span.span) -> List.mem_assoc "widened" s.attrs)
          spans))

(* The gate fires exactly when the exact rung would run unpruned (the
   graph is outside the dense band) and min_pairs exceeds the budget,
   and then the rung it skipped would have raised.  Budgets range over
   [0, 2·min_pairs], plus both sides of the threshold. *)
let prop_skip_only_certain_overruns =
  QCheck.Test.make
    ~name:
      "gate fires iff min_pairs > budget on an unpruned rung; skipped rungs \
       would raise"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_bound 2_000))
    (fun (seed, frac) ->
      let g =
        if seed mod 2 = 0 then
          Workloads.Random_graphs.simple ~seed ~n:(4 + (seed mod 9))
            ~extra_edges:(seed mod 4) ()
        else random_hyper seed
      in
      let m = Core.Dphyp.min_pairs g and unpruned = not (in_dense_band g) in
      let skipped budget =
        List.exists
          (fun (a : Core.Adaptive.attempt) -> a.skipped <> None)
          (Opt.run ~budget Opt.Adaptive g).Opt.attempts
      in
      List.for_all
        (fun budget ->
          let fires = unpruned && m > budget in
          skipped budget = fires
          && ((not fires)
             ||
             match
               Core.Dphyp.solve ~counters:(Core.Counters.create ~budget ()) g
             with
             | _ ->
                 QCheck.Test.fail_reportf "budget %d < min_pairs %d held"
                   budget m
             | exception Core.Counters.Budget_exhausted -> true))
        (List.filter (fun b -> b >= 0) [ m * frac / 1_000; m - 1; m ]))

(* ---------- budget on plain algorithms ---------- *)

let test_budget_exhausted_raises () =
  let g = Workloads.Shapes.clique 10 in
  List.iter
    (fun algo ->
      Alcotest.check_raises
        (Opt.name algo ^ " raises on exhausted budget")
        Core.Counters.Budget_exhausted
        (fun () -> ignore (Opt.run ~budget:50 algo g)))
    [ Opt.Dphyp; Opt.Dpsize; Opt.Dpsub; Opt.Goo; Opt.Topdown; Opt.Tdpart;
      Opt.Idp { k = Core.Idp.default_k } ]

let test_budget_large_enough_is_silent () =
  let g = Workloads.Shapes.chain 6 in
  let unbudgeted = cost_of "dphyp" (Opt.run Opt.Dphyp g) in
  let budgeted = cost_of "dphyp-budget" (Opt.run ~budget:1_000_000 Opt.Dphyp g) in
  Alcotest.(check (float 1e-9)) "same cost under generous budget" unbudgeted
    budgeted

(* ---------- Invalid_argument contracts of Optimizer.run ---------- *)

let test_dpccp_rejects_complex_edges () =
  let g =
    Workloads.Random_graphs.hyper ~seed:7 ~n:6 ~extra_edges:1 ~hyperedges:2
      ~max_hypernode:3 ()
  in
  check "graph really has hyperedges" true (G.has_hyperedges g);
  Alcotest.check_raises "dpccp refuses hypergraphs"
    (Invalid_argument "Dpccp: graph has hyperedges; use Dphyp")
    (fun () -> ignore (Opt.run Opt.Dpccp g))

let test_filter_rejected_by_non_filter_algos () =
  let g = Workloads.Shapes.chain 4 in
  List.iter
    (fun algo ->
      Alcotest.check_raises
        (Opt.name algo ^ " rejects filter")
        (Invalid_argument
           (Printf.sprintf
              "Optimizer.run: %s does not support a validity filter"
              (Opt.name algo)))
        (fun () -> ignore (Opt.run ~filter:(fun _ _ _ -> true) algo g)))
    (List.filter (fun a -> a <> Opt.Dphyp) Opt.all)

(* ---------- non-inner regression across conflict modes ---------- *)

let modes =
  [
    ("tes-literal", D.Tes_literal);
    ("tes-conservative", D.Tes_conservative);
    ("cdc", D.Cdc);
  ]

let test_noninner_all_modes () =
  let trees =
    [
      ("star-antijoins", Workloads.Noninner.star_antijoins ~n_rel:6 ~k:3 ());
      ("cycle-outerjoins", Workloads.Noninner.cycle_outerjoins ~n_rel:6 ~k:2 ());
    ]
  in
  List.iter
    (fun (tname, tree) ->
      List.iter
        (fun (mname, mode) ->
          match D.optimize_tree ~mode tree with
          | Error m -> Alcotest.failf "%s under %s: %s" tname mname m
          | Ok r ->
              (match Plans.Plan_check.check r.D.graph r.D.plan with
              | [] -> ()
              | issues ->
                  Alcotest.failf "%s under %s: %s" tname mname
                    (String.concat "; "
                       (List.map Plans.Plan_check.issue_to_string issues)));
              (match D.verify_on_data r with
              | Ok _ -> ()
              | Error m ->
                  Alcotest.failf "%s under %s: bags differ: %s" tname mname m))
        modes)
    trees

let test_adaptive_through_pipeline () =
  (* filter-free modes accept the adaptive algorithm and report a
     tier; filter modes refuse it with a readable error *)
  let tree = Workloads.Noninner.star_antijoins ~n_rel:6 ~k:2 () in
  (match D.optimize_tree ~algo:Opt.Adaptive tree with
  | Error m -> Alcotest.failf "adaptive via pipeline: %s" m
  | Ok r -> (
      check "tier reported" true (r.D.tier <> None);
      match D.verify_on_data r with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "adaptive plan execution: %s" m));
  match D.optimize_tree ~mode:D.Cdc ~algo:Opt.Adaptive tree with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cdc mode must refuse a filterless algorithm"

let test_pipeline_budget_error () =
  let g = Workloads.Shapes.clique 12 in
  match D.optimize_graph ~budget:100 g with
  | Error m -> check "mentions the budget" true (contains_sub m "budget")
  | Ok _ -> Alcotest.fail "a 100-pair budget cannot optimize a 12-clique"

(* ---------- dpconv: subset-convolution DP ---------- *)

module Dc = Core.Dpconv

(* Simple inner-join graphs n <= 10 — the band where the brute-force
   C_max reference below is affordable. *)
let dpconv_suite () =
  [
    ("chain7", Workloads.Shapes.chain 7);
    ("cycle8", Workloads.Shapes.cycle 8);
    ("star6", Workloads.Shapes.star 6);
    ("star8", Workloads.Shapes.star 8);
    ("clique6", Workloads.Shapes.clique 6);
    ("clique8", Workloads.Shapes.clique 8);
    ("clique10", Workloads.Shapes.clique 10);
    ("grid2x4", Workloads.Shapes.grid ~rows:2 ~cols:4 ());
    ("grid2x5", Workloads.Shapes.grid ~rows:2 ~cols:5 ());
  ]

(* Brute-force C_max reference: plain memoized min-max recursion over
   all partitions into connected halves — the O(3^n) definition the
   convolution is supposed to reproduce. *)
let brute_cmax g =
  let module H = Hashtbl in
  let cards : (Ns.t, float) H.t = H.create 256 in
  let rec card s =
    match H.find_opt cards s with
    | Some c -> c
    | None ->
        let c =
          if Ns.is_singleton s then G.cardinality g (Ns.min_elt s)
          else
            let v = Ns.min_elt s in
            let rest = Ns.remove v s in
            let sel =
              Array.fold_left
                (fun acc (e : Hypergraph.Hyperedge.t) ->
                  let a = Ns.min_elt e.u and b = Ns.min_elt e.v in
                  if
                    (a = v && Ns.mem b rest) || (b = v && Ns.mem a rest)
                  then acc *. e.sel
                  else acc)
                1.0 (G.edges g)
            in
            card rest *. G.cardinality g v *. sel
        in
        H.add cards s c;
        c
  in
  let connected s =
    Ns.is_singleton s
    ||
    let rec grow reach =
      let next =
        Ns.inter (G.simple_neighborhood g reach) (Ns.diff s reach)
      in
      if Ns.is_empty next then reach else grow (Ns.union reach next)
    in
    Ns.equal (grow (Ns.min_set s)) s
  in
  let memo : (Ns.t, float) H.t = H.create 256 in
  let rec cmax s =
    if Ns.is_singleton s then 0.
    else
      match H.find_opt memo s with
      | Some v -> v
      | None ->
          let best = ref infinity in
          let v = Ns.min_set s in
          Nodeset.Subset_enum.iter_all (Ns.without_min s) (fun rest ->
              let t = Ns.union v rest in
              let other = Ns.diff s t in
              if
                (not (Ns.is_empty other))
                && connected t && connected other
              then
                let c =
                  Float.max (card s) (Float.max (cmax t) (cmax other))
                in
                if c < !best then best := c);
          H.add memo s !best;
          !best
  in
  cmax (G.all_nodes g)

let rec max_join_card (p : Plans.Plan.t) =
  match p.Plans.Plan.tree with
  | Plans.Plan.Scan _ -> 0.
  | Plans.Plan.Join j ->
      Float.max p.Plans.Plan.card
        (Float.max (max_join_card j.Plans.Plan.left)
           (max_join_card j.Plans.Plan.right))

let check_dpconv_cmax name g =
  let reference = brute_cmax g in
  let o = Dc.solve ~objective:Dc.Cmax g in
  match o.Dc.plan with
  | None -> Alcotest.failf "%s: dpconv cmax found no plan" name
  | Some p ->
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: dpconv plan invalid: %s" name
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      check (name ^ ": covers all relations") true
        (Ns.equal p.Plans.Plan.set (G.all_nodes g));
      if not (close o.Dc.cmax reference) then
        Alcotest.failf "%s: dpconv cmax %.17g <> brute force %.17g" name
          o.Dc.cmax reference;
      (* the witness really achieves the optimum it claims *)
      check (name ^ ": witness within cmax") true
        (max_join_card p <= o.Dc.cmax *. (1. +. 1e-9))

let test_dpconv_cmax_suite () =
  List.iter (fun (name, g) -> check_dpconv_cmax name g) (dpconv_suite ())

let prop_dpconv_cmax_random =
  QCheck.Test.make
    ~name:"dpconv cmax = brute-force min-max on random simple graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = random_simple seed in
      check_dpconv_cmax "random-simple" g;
      true)

(* Dense simple graphs of 8-14 relations: about half the complete
   graph's edges. *)
let dense_simple ~seed n =
  Workloads.Random_graphs.simple ~seed ~n ~extra_edges:(n * (n - 1) / 4) ()

(* Cout_bound is the exact C_out optimum, through a Plan_check-valid
   plan; disagreements render through the aligned plan diff.  The
   layered min-plus refinement it replaced sat 2.63x above the optimum
   on the pinned dense 14-relation graph. *)
let check_dpconv_cout name g =
  let exact = Core.Dphyp.solve g in
  let o = Dc.solve ~objective:Dc.Cout_bound g in
  match (o.Dc.plan, exact) with
  | None, _ -> Alcotest.failf "%s: dpconv cout_bound found no plan" name
  | _, None -> Alcotest.failf "%s: dphyp found no plan" name
  | Some p, Some e ->
      (match Plans.Plan_check.check g p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: dpconv cout plan invalid: %s" name
            (String.concat "; "
               (List.map Plans.Plan_check.issue_to_string issues)));
      check (name ^ ": bound is the plan's cost") true
        (close o.Dc.bound p.Plans.Plan.cost);
      if not (close o.Dc.bound e.Plans.Plan.cost) then
        let names i = (G.relation g i).G.name in
        Alcotest.failf "%s: dpconv cout_bound %.6g, exact optimum %.6g\n%s"
          name o.Dc.bound e.Plans.Plan.cost
          (Plans.Plan_diff.report ~names ~labels:("dpconv", "dphyp") p e)

let test_dpconv_cout_suite () =
  List.iter
    (fun (name, g) -> check_dpconv_cout name g)
    (("dense14-seed55", dense_simple ~seed:55 14) :: dpconv_suite ())

let prop_dpconv_cout_random =
  QCheck.Test.make
    ~name:"dpconv cout_bound = dphyp optimum on random and dense graphs"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        if seed mod 2 = 0 then random_simple seed
        else dense_simple ~seed (8 + (seed / 2 mod 7))
      in
      check_dpconv_cout "random-simple" g;
      true)

let test_dpconv_rejects_unsupported () =
  let hyper =
    Workloads.Random_graphs.hyper ~seed:7 ~n:6 ~extra_edges:1 ~hyperedges:2
      ~max_hypernode:3 ()
  in
  check "hyper not supported" false (Dc.supported hyper);
  Alcotest.check_raises "dpconv refuses hypergraphs"
    (Invalid_argument
       (Printf.sprintf
          "Dpconv: unsupported graph (needs 1..%d relations, simple edges, \
           inner operators, no free variables); use dphyp"
          Dc.max_relations))
    (fun () -> ignore (Dc.solve hyper));
  check "clique-19 over the cap" false
    (Dc.supported (Workloads.Shapes.clique 19))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "differential"
    [
      ( "exact-agreement",
        [
          q prop_exact_agree_simple;
          q prop_exact_agree_hyper;
          q prop_ccp_counter_pinned;
        ] );
      ( "idp",
        [
          q prop_idp_exact_when_k_covers;
          q prop_idp_valid_and_no_better;
        ] );
      ( "adaptive",
        [
          q prop_adaptive_unlimited_exact;
          Alcotest.test_case "suite graphs, unlimited budget" `Quick
            test_adaptive_suite_unlimited;
          Alcotest.test_case "clique-20 under 50k budget" `Quick
            test_adaptive_clique20_budget;
          Alcotest.test_case "budget 1 falls to goo" `Quick
            test_adaptive_budget_one_falls_to_goo;
          Alcotest.test_case "attempts line pinned" `Quick
            test_adaptive_attempts_pinned;
          Alcotest.test_case "dense band prunes, answer unchanged" `Quick
            test_dense_band_prunes;
          Alcotest.test_case "dense band: GOO answers under budget" `Quick
            test_dense_band_greedy_answers;
          q prop_adaptive_unlimited_same_plan;
          q prop_dense_band_within_goo;
        ] );
      ( "certified-skip",
        [
          Alcotest.test_case "star-29 skips exact, idp-10 unchanged" `Quick
            test_skip_star29;
          Alcotest.test_case "clique-20 ladder total" `Quick
            test_skip_clique20;
          Alcotest.test_case "bound-pruned rung never skipped" `Quick
            test_no_skip_when_bounded;
          Alcotest.test_case "skip in spans, not in latency" `Quick
            test_skip_observed;
          q prop_skip_only_certain_overruns;
        ] );
      ( "large-query",
        [
          Alcotest.test_case "partitioned tier pinned at 1M" `Quick
            test_partitioned_pins;
          Alcotest.test_case "idp-3 widening on star-hyper-16" `Quick
            test_idp_widening_pin;
          Alcotest.test_case "partition = the partitioned tier" `Quick
            test_partition_is_partitioned_tier;
          Alcotest.test_case "k < 2 refused before any work" `Quick
            test_k_checked_first;
          Alcotest.test_case "random corpus pinned, both tiers" `Quick
            test_large_corpus_pins;
        ] );
      ( "budget",
        [
          Alcotest.test_case "plain algorithms raise" `Quick
            test_budget_exhausted_raises;
          Alcotest.test_case "generous budget is invisible" `Quick
            test_budget_large_enough_is_silent;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "dpccp rejects complex edges" `Quick
            test_dpccp_rejects_complex_edges;
          Alcotest.test_case "filter rejected by non-filter algorithms" `Quick
            test_filter_rejected_by_non_filter_algos;
        ] );
      ( "non-inner",
        [
          Alcotest.test_case "all conflict modes execute correctly" `Quick
            test_noninner_all_modes;
          Alcotest.test_case "adaptive through the pipeline" `Quick
            test_adaptive_through_pipeline;
          Alcotest.test_case "budget exhaustion is an Error" `Quick
            test_pipeline_budget_error;
        ] );
      ( "dpconv",
        [
          Alcotest.test_case "cmax = brute force on suite graphs" `Quick
            test_dpconv_cmax_suite;
          q prop_dpconv_cmax_random;
          Alcotest.test_case "cout_bound = dphyp optimum on suite graphs"
            `Quick test_dpconv_cout_suite;
          q prop_dpconv_cout_random;
          Alcotest.test_case "rejects unsupported graphs" `Quick
            test_dpconv_rejects_unsupported;
        ] );
    ]
