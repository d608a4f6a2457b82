(* The one-call pipeline driver. *)

module D = Driver.Pipeline
module Op = Relalg.Operator
module Ot = Relalg.Optree
module P = Relalg.Predicate

let check = Alcotest.(check bool)

let sample_sql =
  "SELECT * FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.x = c.x \
   WHERE EXISTS (SELECT * FROM v WHERE v.k = a.k)"

let test_optimize_sql_all_modes () =
  List.iter
    (fun mode ->
      match D.optimize_sql ~mode sample_sql with
      | Ok r ->
          check "plan covers all relations" true
            (Nodeset.Node_set.equal r.D.plan.Plans.Plan.set
               (Hypergraph.Graph.all_nodes r.D.graph));
          (match D.verify_on_data r with
          | Ok _ -> ()
          | Error m -> Alcotest.fail m)
      | Error m -> Alcotest.fail m)
    D.[ Tes_literal; Tes_conservative; Cdc ]

let test_modes_agree_on_inner () =
  (* pure inner joins: every conflict mode admits the full space, so
     all modes land on the same optimum *)
  let sql = "SELECT * FROM a, b, c, d WHERE a.k = b.k AND b.x = c.x AND c.y = d.y" in
  let cost mode =
    match D.optimize_sql ~mode sql with
    | Ok r -> r.D.plan.Plans.Plan.cost
    | Error m -> Alcotest.fail m
  in
  let c0 = cost D.Tes_literal in
  List.iter
    (fun mode ->
      check "same optimum" true (Float.abs (cost mode -. c0) <= 1e-9 *. c0))
    D.[ Tes_conservative; Cdc ]

let test_optimize_tree () =
  let tree = Workloads.Noninner.star_antijoins ~n_rel:6 ~k:3 () in
  match D.optimize_tree ~mode:D.Tes_conservative tree with
  | Ok r ->
      check "counters populated" true
        (r.D.counters.Core.Counters.ccp_emitted > 0)
  | Error m -> Alcotest.fail m

let test_optimize_graph () =
  match D.optimize_graph (Workloads.Shapes.cycle 6) with
  | Ok r ->
      check "plan covers the 6 relations" true
        (Nodeset.Node_set.cardinal r.D.plan.Plans.Plan.set = 6);
      check "tree rematerialized" true (Ot.num_ops r.D.tree = 5)
  | Error m -> Alcotest.fail m

let contains s sub =
  let n = String.length s and l = String.length sub in
  let rec go i = i + l <= n && (String.sub s i l = sub || go (i + 1)) in
  go 0

let test_errors () =
  check "parse error surfaces" true
    (match D.optimize_sql "SELECT FROM" with Error _ -> true | Ok _ -> false);
  check "invalid tree surfaces" true
    (match
       D.optimize_tree
         (Ot.join (P.eq_cols 0 "v" 1 "v") (Ot.leaf 1 "B") (Ot.leaf 0 "A"))
     with
    | Error m -> String.length m > 0
    | Ok _ -> false);
  check "filter/algorithm mismatch surfaces" true
    (match
       D.optimize_sql ~mode:D.Cdc ~algo:Core.Optimizer.Goo sample_sql
     with
    | Error _ -> true
    | Ok _ -> false);
  (* only DPhyp takes CD-C's filter: Optimizer.run's refusal comes
     back as an Error, not an exception *)
  let tree = Workloads.Noninner.star_antijoins ~n_rel:4 ~k:2 () in
  List.iter
    (fun algo ->
      match D.optimize_tree ~mode:D.Cdc ~algo tree with
      | Error m ->
          check m true
            (contains m "does not support a validity filter")
      | Ok _ -> Alcotest.failf "cdc under %s served" (Core.Optimizer.name algo))
    Core.Optimizer.[ Dpsize; Dpsub; Goo ]

let test_custom_catalog () =
  let sql = "SELECT * FROM big JOIN small ON big.k = small.k" in
  let cards i = if i = 0 then 1_000_000.0 else 10.0 in
  match D.optimize_sql ~cards sql with
  | Ok r ->
      Alcotest.(check (float 1e-6)) "catalog respected" 1_000_000.0
        (Hypergraph.Graph.cardinality r.D.graph 0)
  | Error m -> Alcotest.fail m

(* Why CD-C keeps the validity-filter path: on R0 ▷ R3 over
   R0 ⟕ (R1 ⟗ R2) both TES gates forbid the cheap orders CD-C admits
   (default cards: 10,101 against 110,001 literal and 1.01e7
   conservative), and CD-C's plan is still correct. *)
let test_cdc_beats_tes_gates () =
  let ops_all =
    Relalg.Operator.
      [ join; left_outer; full_outer; left_semi; left_anti; left_nest ]
  in
  let tree = Workloads.Random_trees.random_tree ~seed:122 ~n:4 ~ops:ops_all in
  let run mode =
    match D.optimize_tree ~mode tree with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let cdc = run D.Cdc in
  List.iter
    (fun (name, mode) ->
      let gate = (run mode).D.plan.Plans.Plan.cost in
      check
        (Printf.sprintf "cdc %g < %s %g" cdc.D.plan.Plans.Plan.cost name gate)
        true
        (cdc.D.plan.Plans.Plan.cost < gate))
    [ ("literal", D.Tes_literal); ("conservative", D.Tes_conservative) ];
  match D.verify_on_data cdc with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "cdc plan: %s" m

let span_names ctx = List.map (fun s -> s.Obs.Span.name) (Obs.Span.spans ctx)

let test_profile_spans () =
  (* an observed SQL run leaves one span per pipeline phase in the
     caller's collector, whose durations are sane *)
  let ctx = Obs.Span.create () in
  match D.optimize_sql ~obs:ctx sample_sql with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let names = span_names ctx in
      List.iter
        (fun phase ->
          check ("span recorded: " ^ phase) true (List.mem phase names))
        [
          "parse";
          "simplify";
          "conflict-analysis";
          "hypergraph-derive";
          "enumerate:dphyp";
        ];
      let total_s = Obs.Span.elapsed ctx in
      check "phases sum within total" true
        (List.for_all
           (fun s -> s.Obs.Span.dur_s <= total_s)
           (Obs.Span.spans ctx));
      check "counters carried" true
        (r.D.counters.Core.Counters.pairs_considered > 0)

let test_profile_adaptive_ladder () =
  (* a budgeted adaptive run carries every attempt and its spans show
     every rung.  On dense clique-12, GOO runs first, its cost bounds
     the exact rung, and its plan answers when that rung runs out:
     one greedy attempt, listed last, on counters that carry the
     request's budget. *)
  let ladder budget g =
    let ctx = Obs.Span.create () in
    match D.optimize_graph ~obs:ctx ~algo:Core.Optimizer.Adaptive ~budget g with
    | Error m -> Alcotest.fail m
    | Ok r -> (r, span_names ctx)
  in
  let r, names = ladder 2_000 (Workloads.Shapes.clique 12) in
  Alcotest.(check string) "clique-12 attempts"
    "exact(2001 pairs, budget ran out) -> greedy(286 pairs)"
    (Format.asprintf "%a" Core.Adaptive.pp_attempts r.D.attempts);
  check "greedy answers" true (r.D.tier = Some Core.Adaptive.Greedy);
  Alcotest.(check string) "the greedy answer carries the budget"
    "pairs=286 ccp=0 cost-calls=572 filtered=0 neighborhoods=0 \
     budget=2000 remaining=1714"
    (Format.asprintf "%a" Core.Counters.pp r.D.counters);
  check "greedy and exact spans, no dpconv span" true
    (List.mem "tier:greedy" names && List.mem "tier:exact" names
    && not (List.mem "tier:dpconv" names));
  check "plan-emit span present" true (List.mem "plan-emit" names);
  (* sparse star-10: the exact rung is skipped and an IDP rung answers
     on budgeted counters *)
  let r, names = ladder 2_000 (Workloads.Shapes.star 10) in
  check "idp-7 answers" true (r.D.tier = Some (Core.Adaptive.Idp_k 7));
  check "budget context carried" true
    (Core.Counters.budget r.D.counters = Some 2_000
    && Core.Counters.remaining r.D.counters <> None);
  check "no greedy span" false (List.mem "tier:greedy" names)

(* The result carries the optimizer's attempts and table occupancy on
   every request: unobserved, and served from the plan cache. *)
let test_profile_run_facts () =
  let g = Workloads.Shapes.clique 12 and budget = 5_000 in
  let o = Core.Optimizer.run ~budget Core.Optimizer.Adaptive g in
  let same label (r : D.result) =
    check (label ^ ": attempts") true
      (r.D.attempts = o.Core.Optimizer.attempts);
    Alcotest.(check int) (label ^ ": dp entries") o.Core.Optimizer.dp_entries
      r.D.dp_entries
  in
  let cache = D.make_cache ~capacity:4 () in
  let run ?cache () =
    match D.optimize_graph ?cache ~algo:Core.Optimizer.Adaptive ~budget g with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  same "no obs" (run ());
  same "cache miss" (run ~cache ());
  same "cache hit" (run ~cache ());
  Alcotest.(check int) "the last run was a hit" 1
    (Cache.Plan_cache.stats cache).Cache.Plan_cache.hits;
  check "ladder recorded" true (List.length o.Core.Optimizer.attempts = 2)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                     *)

module A = Driver.Analyze

let analyze_sql = "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y"

let analyze_ok ?obs ?algo ?budget sql =
  match A.analyze_sql ?obs ?algo ?budget ~rows:6 ~seed:7 sql with
  | Ok rep -> rep
  | Error m -> Alcotest.fail m

let test_analyze_report () =
  let rep = analyze_ok analyze_sql in
  (* 3 scans + 2 joins, root first *)
  Alcotest.(check int) "five operators" 5 (List.length rep.A.rows);
  let root = List.hd rep.A.rows in
  check "root is a join" true root.A.is_join;
  check "root covers all tables" true
    (Nodeset.Node_set.equal root.A.tables rep.A.optimized.D.plan.Plans.Plan.set);
  check "root depth 0" true (root.A.depth = 0);
  List.iter
    (fun (r : A.op_row) ->
      check "actual rows nonnegative" true (r.A.actual_rows >= 0);
      check "estimates positive" true (r.A.est_card > 0.0);
      match r.A.q_error with
      | Some q -> check "q-error >= 1" true (q >= 1.0)
      | None -> check "no q-error only for empty output" true (r.A.actual_rows = 0))
    rep.A.rows;
  check "verified" true (rep.A.mismatch = None);
  check "root rows = result rows" true
    ((List.hd rep.A.rows).A.actual_rows = rep.A.result_rows);
  check "max q-error present" true (rep.A.max_q <> None);
  check "measured C_out positive" true (rep.A.measured_cout > 0.0);
  check "original order no better" true
    (rep.A.original_cout >= rep.A.measured_cout -. 1e-9)

let test_analyze_exact_delta_one () =
  (* an exact algorithm IS the exact reference: delta must be 1 *)
  let rep = analyze_ok ~algo:Core.Optimizer.Dphyp analyze_sql in
  check "source is dphyp" true (rep.A.source = "dphyp");
  check "exact C_out is own C_out" true
    (rep.A.exact_cout = Some rep.A.measured_cout);
  check "delta 1.0" true (rep.A.quality_delta = Some 1.0)

let test_analyze_per_node_consistency () =
  (* the report's per-operator actuals must agree with the standalone
     Stats.per_node contract on the same instance *)
  let rep = analyze_ok analyze_sql in
  let sum_join_rows =
    List.fold_left
      (fun acc (r : A.op_row) ->
        if r.A.is_join then acc + r.A.actual_rows else acc)
      0 rep.A.rows
  in
  Alcotest.(check (float 1e-9)) "measured C_out = sum of join actuals"
    rep.A.measured_cout (float_of_int sum_join_rows)

let test_analyze_profile_spans () =
  (* the executor's phases land in the caller's collector, next to the
     pipeline's; the pipeline emits the plan's operator tree once, and
     the report keeps that result: its tree is its plan over its graph *)
  let ctx = Obs.Span.create () in
  let rep = analyze_ok ~obs:ctx analyze_sql in
  let names = span_names ctx in
  List.iter
    (fun phase ->
      check ("span recorded: " ^ phase) true (List.mem phase names))
    [ "calibrate"; "enumerate:dphyp"; "plan-emit"; "execute"; "verify" ];
  Alcotest.(check int) "plan emitted once" 1
    (List.length (List.filter (( = ) "plan-emit") names));
  let r = rep.A.optimized in
  check "pipeline result kept" true
    (Format.asprintf "%a" Ot.pp r.D.tree
     = Format.asprintf "%a" Ot.pp (Plans.Plan.to_optree r.D.graph r.D.plan))

let test_analyze_json_schema () =
  let rep = analyze_ok analyze_sql in
  let js = A.to_json ~query:analyze_sql rep in
  List.iter
    (fun key -> check key true (contains js key))
    [
      "\"schema\": \"obs_analyze/v1\"";
      "\"operators\"";
      "\"est_card\"";
      "\"actual_rows\"";
      "\"q_error\"";
      "\"summary\"";
      "\"max_q_error\"";
      "\"measured_cout\"";
      "\"verified\": true";
    ]

(* execute_sql is analyze's front half: at 40 rows the calibration
   samples, so the two agree only when both seed it from [seed]. *)
let test_execute_matches_analyze () =
  let sql = "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.x = c.x" in
  match
    ( A.execute_sql ~algo:Core.Optimizer.Dphyp ~conservative:false ~rows:40
        ~seed:1 sql,
      A.analyze_sql ~rows:40 ~seed:1 sql )
  with
  | Ok ex, Ok rep ->
      check "same plan" true
        (Plans.Plan.to_string ex.A.optimized.D.plan
        = Plans.Plan.to_string rep.A.optimized.D.plan);
      Alcotest.(check (float 1e-9)) "est. cost = C_out est" rep.A.est_cout
        ex.A.optimized.D.plan.Plans.Plan.cost;
      Alcotest.(check int) "tuples" rep.A.result_rows (List.length ex.A.tuples);
      check "verdict" true (ex.A.mismatch = None && rep.A.mismatch = None)
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_analyze_errors () =
  (match A.analyze_sql "SELECT * FROM" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error expected");
  match
    A.analyze_sql ~algo:Core.Optimizer.Dphyp ~budget:1 ~rows:4
      "SELECT * FROM a, b, c, d, e WHERE a.x = b.x AND b.x = c.x AND c.x = \
       d.x AND d.x = e.x"
  with
  | Error m -> check "budget error surfaced" true (m = D.budget_error)
  | Ok _ -> Alcotest.fail "budget exhaustion expected"

(* ---------- serving telemetry ---------- *)

(* The value of one Prometheus series line, 0 when absent. *)
let prom_count tel series =
  let prefix = series ^ " " in
  String.split_on_char '\n' (Obs.Export.prometheus tel)
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           int_of_string_opt
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
         else None)
  |> Option.value ~default:0

let phase_count tel phase =
  prom_count tel
    (Printf.sprintf {|joinopt_phase_latency_seconds_count{phase="%s"}|} phase)

(* A SQL request with telemetry but no caller collector still records
   its parse phase, and its latency clock covers every phase. *)
let test_tel_sql_parse () =
  let tel = Obs.Export.create ~slow_s:0.0 () in
  (match D.optimize_sql ~tel sample_sql with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "one parse sample" 1 (phase_count tel "parse");
  match Obs.Recorder.to_list (Obs.Export.recorder tel) with
  | [ req ] ->
      let phases =
        List.filter (fun (sp : Obs.Span.span) -> sp.depth = 0) req.spans
      in
      check "parse span kept" true
        (List.exists (fun (sp : Obs.Span.span) -> sp.name = "parse") phases);
      let phase_s =
        List.fold_left (fun a (sp : Obs.Span.span) -> a +. sp.dur_s) 0.0 phases
      in
      check "latency covers every phase" true (req.wall_s >= phase_s)
  | l -> Alcotest.failf "expected one recorded request, got %d" (List.length l)

(* Two requests on one collector: each harvests only its own spans. *)
let test_tel_reused_collector () =
  let ctx = Obs.Span.create () and tel = Obs.Export.create ~slow_s:0.0 () in
  for _ = 1 to 2 do
    match D.optimize_sql ~obs:ctx ~tel sample_sql with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  List.iter
    (fun phase ->
      Alcotest.(check int) (phase ^ " counted once per request") 2
        (phase_count tel phase))
    [ "parse"; "simplify"; "conflict-analysis"; "hypergraph-derive";
      "enumerate" ];
  match Obs.Recorder.to_list (Obs.Export.recorder tel) with
  | [ _; second ] ->
      Alcotest.(check int) "recorder entry keeps its own spans"
        (List.length (Obs.Span.spans ctx))
        (2 * List.length second.spans)
  | l -> Alcotest.failf "expected two recorded requests, got %d" (List.length l)

(* Tier latencies come from the request's tier spans: one sample per
   rung that ran, none for a rung skipped on its certificate.  On
   star-12 at 2000 pairs exact is skipped, idp-10 runs out and idp-7
   answers. *)
let test_tel_tiers_from_spans () =
  let ctx = Obs.Span.create () and tel = Obs.Export.create () in
  (match
     D.optimize_graph ~obs:ctx ~tel ~algo:Core.Optimizer.Adaptive ~budget:2000
       (Workloads.Shapes.star 12)
   with
  | Ok r ->
      check "idp-7 answers" true (r.D.tier = Some (Core.Adaptive.Idp_k 7))
  | Error m -> Alcotest.fail m);
  let tier_spans =
    List.filter
      (fun (sp : Obs.Span.span) -> String.starts_with ~prefix:"tier:" sp.name)
      (Obs.Span.spans ctx)
  in
  let ran tier =
    List.length
      (List.filter
         (fun (sp : Obs.Span.span) ->
           sp.name = "tier:" ^ tier && not (List.mem_assoc "skipped" sp.attrs))
         tier_spans)
  in
  check "idp-10 raised" true
    (List.exists
       (fun (sp : Obs.Span.span) ->
         sp.name = "tier:idp-10" && List.mem_assoc "raised" sp.attrs)
       tier_spans);
  List.iter
    (fun (tier, expected) ->
      Alcotest.(check int) (tier ^ " spans that ran") expected (ran tier);
      Alcotest.(check int) (tier ^ " latency samples") expected
        (prom_count tel
           (Printf.sprintf {|joinopt_tier_latency_seconds_count{tier="%s"}|}
              tier)))
    [ ("exact", 0); ("idp-10", 1); ("idp-7", 1) ]

(* A request's recorder entry carries the words it allocated, exact
   without a collection: a one-shot SQL request allocates far less
   than a minor heap, so a reading that only advances at collections
   reads 0 unless one happens to fall inside the request. *)
let test_tel_request_words () =
  let tel = Obs.Export.create () in
  (match D.optimize_sql ~tel sample_sql with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Obs.Recorder.to_list (Obs.Export.recorder tel) with
  | [ req ] ->
      check "minor words counted" true (req.Obs.Recorder.minor_words > 0.0);
      check "major words not negative" true
        (req.Obs.Recorder.major_words >= 0.0)
  | l -> Alcotest.failf "expected one recorded request, got %d" (List.length l)

let () =
  Alcotest.run "driver"
    [
      ( "pipeline",
        [
          Alcotest.test_case "sql, all conflict modes" `Quick
            test_optimize_sql_all_modes;
          Alcotest.test_case "modes agree on inner joins" `Quick
            test_modes_agree_on_inner;
          Alcotest.test_case "tree entry point" `Quick test_optimize_tree;
          Alcotest.test_case "graph entry point" `Quick test_optimize_graph;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "custom catalog" `Quick test_custom_catalog;
          Alcotest.test_case "cdc beats both tes gates" `Quick
            test_cdc_beats_tes_gates;
        ] );
      ( "profile",
        [
          Alcotest.test_case "pipeline phase spans" `Quick test_profile_spans;
          Alcotest.test_case "run facts without obs and on a cache hit"
            `Quick test_profile_run_facts;
          Alcotest.test_case "adaptive tier ladder" `Quick
            test_profile_adaptive_ladder;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "sql records parse" `Quick test_tel_sql_parse;
          Alcotest.test_case "reused collector" `Quick
            test_tel_reused_collector;
          Alcotest.test_case "tier latency from spans" `Quick
            test_tel_tiers_from_spans;
          Alcotest.test_case "recorder entry counts words" `Quick
            test_tel_request_words;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "report shape" `Quick test_analyze_report;
          Alcotest.test_case "exact plan has delta 1" `Quick
            test_analyze_exact_delta_one;
          Alcotest.test_case "C_out = sum of join actuals" `Quick
            test_analyze_per_node_consistency;
          Alcotest.test_case "phase spans" `Quick test_analyze_profile_spans;
          Alcotest.test_case "obs_analyze/v1 shape" `Quick
            test_analyze_json_schema;
          Alcotest.test_case "errors" `Quick test_analyze_errors;
          Alcotest.test_case "execute_sql matches analyze" `Quick
            test_execute_matches_analyze;
        ] );
    ]
