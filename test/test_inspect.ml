(* Search-space provenance: recorder semantics (hooked DP tables,
   champion history, bounds, sampling, domain-local attachment), the
   forced-order "why" analysis, and recording wrapped around pipeline
   calls plus the loss-report wiring. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module P = Plans.Plan
module Prov = Inspect.Provenance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let chain n = Workloads.Shapes.chain n

(* ---------- recording a plain DPhyp run ---------- *)

let test_record_chain () =
  let g = chain 4 in
  let prov = Prov.create () in
  let dp, plan =
    Prov.with_recording prov (fun () -> Core.Dphyp.solve_with_table g)
  in
  check "solved" true (plan <> None);
  let s = Prov.stats prov in
  check_int "one table attached" 1 s.Prov.tables;
  (* chain-4: 3 pairs + 2 triples + 1 full = 6 composite subsets *)
  check_int "all composite subsets recorded" 6 s.Prov.subsets;
  check_int "recorded = table entries minus leaves" (Plans.Dp_table.size dp - 4)
    s.Prov.subsets;
  check_int "every outcome counted" s.Prov.candidates
    (s.Prov.installed + s.Prov.displaced + s.Prov.rejected);
  check_int "nothing sampled out" 0 s.Prov.sampled_out;
  check_int "nothing overflowed" 0 s.Prov.overflowed;
  (* the root subset's champion matches the winning plan *)
  let root = Option.get (Prov.find prov (G.all_nodes g)) in
  let c = Option.get (Prov.champion root) in
  let p = Option.get plan in
  Alcotest.(check (float 1e-9)) "root champion cost" p.P.cost c.Prov.cost;
  check "champion decomposition recorded" true
    (Ns.cardinal c.Prov.left > 0 && Ns.cardinal c.Prov.right > 0);
  check "rank within candidate count" true
    (c.Prov.rank >= 1 && c.Prov.rank <= root.Prov.candidates);
  (* displaced champions remember the cost they beat, and it is worse *)
  List.iter
    (fun sub ->
      List.iter
        (fun (ch : Prov.champion) ->
          match ch.Prov.displaced with
          | Some old -> check "displacement strictly improved" true (ch.Prov.cost < old)
          | None -> ())
        sub.Prov.champions)
    (Prov.subsets prov)

(* The ambient observer must not leak out of with_recording. *)
let test_recording_scoped () =
  let g = chain 3 in
  let prov = Prov.create () in
  Prov.with_recording prov (fun () -> ignore (Core.Dphyp.solve g));
  let before = (Prov.stats prov).Prov.tables in
  ignore (Core.Dphyp.solve g);
  check_int "no attachment outside the scope" before
    (Prov.stats prov).Prov.tables

(* The observer and the context label are domain-local: a table built
   on another domain while this one records is not hooked, and that
   domain does not see this one's label. *)
let test_recording_domain_local () =
  let g = chain 4 in
  let prov = Prov.create () in
  let other_context =
    Prov.with_recording prov (fun () ->
        Plans.Dp_table.with_context "main-label" (fun () ->
            Domain.join
              (Domain.spawn (fun () ->
                   ignore (Core.Dphyp.solve g);
                   Plans.Dp_table.current_context ()))))
  in
  check_int "no foreign table hooked" 0 (Prov.stats prov).Prov.tables;
  Alcotest.(check string) "no foreign context label" "" other_context

(* ---------- bounds ---------- *)

let test_max_subsets_bound () =
  let g = chain 6 in
  let prov = Prov.create ~max_subsets:2 () in
  ignore (Prov.with_recording prov (fun () -> Core.Dphyp.solve g));
  let s = Prov.stats prov in
  check_int "subset bound respected" 2 s.Prov.subsets;
  check "overflow counted" true (s.Prov.overflowed > 0);
  check_int "aggregates still complete" s.Prov.candidates
    (s.Prov.installed + s.Prov.displaced + s.Prov.rejected)

let test_max_champions_bound () =
  let g = Workloads.Shapes.clique 5 in
  let prov = Prov.create ~max_champions:1 () in
  ignore (Prov.with_recording prov (fun () -> Core.Dphyp.solve g));
  let dropped = ref 0 in
  List.iter
    (fun sub ->
      check "history bounded" true (List.length sub.Prov.champions <= 1);
      dropped := !dropped + sub.Prov.dropped)
    (Prov.subsets prov);
  check "clique run displaced champions beyond the bound" true (!dropped > 0)

let test_sampling () =
  let g = chain 6 in
  let full = Prov.create () in
  ignore (Prov.with_recording full (fun () -> Core.Dphyp.solve g));
  let sampled = Prov.create ~sample:3 () in
  ignore (Prov.with_recording sampled (fun () -> Core.Dphyp.solve g));
  let sf = Prov.stats full and ss = Prov.stats sampled in
  check_int "aggregates identical under sampling" sf.Prov.candidates
    ss.Prov.candidates;
  check "history reduced or equal" true (ss.Prov.subsets <= sf.Prov.subsets);
  check_int "sampled-out + recorded-subset outcomes = all outcomes"
    ss.Prov.candidates
    (ss.Prov.sampled_out
    + List.fold_left
        (fun acc (sub : Prov.subset) -> acc + sub.Prov.candidates)
        0 (Prov.subsets sampled)
    + ss.Prov.overflowed)

(* ---------- context labels (adaptive ladder, IDP rounds) ---------- *)

let test_context_labels () =
  let g = Workloads.Shapes.snowflake_n 80 in
  let prov = Prov.create () in
  let o =
    Prov.with_recording prov (fun () ->
        Core.Adaptive.solve ~budget:1_000_000 g)
  in
  check "partitioned tier won" true
    (o.Core.Adaptive.tier = Core.Adaptive.Partitioned);
  let contexts =
    List.concat_map
      (fun sub -> List.map (fun c -> c.Prov.context) sub.Prov.champions)
      (Prov.subsets prov)
    |> List.sort_uniq compare
  in
  (* eight clustered blocks, then two stitching rounds, every label
     nested under its tier *)
  Alcotest.(check (list string))
    "contexts"
    (List.map
       (fun l -> "tier:partitioned/" ^ l)
       [
         "idp:round:1"; "idp:round:2"; "partition:block:R0";
         "partition:block:R10"; "partition:block:R19"; "partition:block:R28";
         "partition:block:R37"; "partition:block:R46"; "partition:block:R64";
         "partition:block:R72";
       ])
    contexts

(* ---------- renderings ---------- *)

let recorded_chain5 () =
  let g = chain 5 in
  let prov = Prov.create () in
  ignore (Prov.with_recording prov (fun () -> Core.Dphyp.solve g));
  (g, prov)

let test_to_json () =
  let g, prov = recorded_chain5 () in
  let names i = (G.relation g i).G.name in
  let json = Prov.to_json ~names ~name:"chain-5" prov in
  check "schema marker" true (contains "\"schema\": \"obs_inspect/v1\"" json);
  check "named subset" true (contains "{T0,T1}" json);
  check "champion fields" true
    (contains "\"displaced\"" json && contains "\"rank\"" json);
  check "stats block" true (contains "\"sampled_out\"" json)

let test_to_dot () =
  let g, prov = recorded_chain5 () in
  let names i = (G.relation g i).G.name in
  let dot = Prov.to_dot ~names prov in
  check "digraph header" true (String.sub dot 0 7 = "digraph");
  check "lattice edges present" true (contains " -> " dot);
  check "subset node labeled with cost" true (contains "cost=" dot)

(* ---------- why: forced-order analysis ---------- *)

let test_why_suboptimal () =
  let g = chain 5 in
  match Inspect.Why.analyze g "T0 T1 T2 T3 T4" with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let d = Option.get r.Inspect.Why.first_divergence in
      check "nonzero gap" true (d.Inspect.Why.total > 0.0);
      check_int "first divergence is the smallest bad subtree" 3
        (Ns.cardinal d.Inspect.Why.set);
      check "forced costs more than optimal" true
        (r.Inspect.Why.forced.P.cost > r.Inspect.Why.optimal.P.cost);
      (* local gaps sum to the root's total gap *)
      let root_total =
        r.Inspect.Why.forced.P.cost -. r.Inspect.Why.optimal.P.cost
      in
      let local_sum =
        List.fold_left
          (fun acc (gp : Inspect.Why.gap) -> acc +. gp.Inspect.Why.local)
          0.0 r.Inspect.Why.gaps
      in
      Alcotest.(check (float 1e-6))
        "local attribution sums to the total gap"
        (root_total /. root_total)
        (local_sum /. root_total);
      let report = Inspect.Why.report r in
      check "report names the divergence" true
        (contains "first divergence" report);
      check "report embeds the aligned diff" true
        (contains "aligned diff" report && contains "total cost" report)

let test_why_optimal_order () =
  let g = chain 4 in
  match Core.Dphyp.solve g with
  | None -> Alcotest.fail "chain-4 unsolvable"
  | Some best -> (
      (* render the optimal plan back into the order grammar *)
      let rec spec (p : P.t) =
        match p.P.tree with
        | P.Scan i -> (G.relation g i).G.name
        | P.Join j -> Printf.sprintf "(%s %s)" (spec j.P.left) (spec j.P.right)
      in
      match Inspect.Why.analyze g (spec best) with
      | Error m -> Alcotest.fail m
      | Ok r ->
          check "no divergence for the optimal order" true
            (r.Inspect.Why.first_divergence = None);
          Alcotest.(check (float 1e-9))
            "forced cost equals optimal" r.Inspect.Why.optimal.P.cost
            r.Inspect.Why.forced.P.cost)

let test_why_errors () =
  let g = chain 4 in
  let err spec =
    match Inspect.Why.analyze g spec with Error m -> m | Ok _ -> ""
  in
  check "unknown relation" true (contains "unknown relation" (err "T0 T1 T2 bogus"));
  check "duplicate relation" true (contains "twice" (err "T0 T1 T2 T2"));
  check "missing coverage" true (contains "does not cover" (err "T0 T1"));
  check "cross product refused" true
    (contains "cross products" (err "(T0 T2) (T1 T3)"));
  check "unbalanced parens" true
    (contains "parentheses" (err "((T0 T1) T2 T3"))

(* ---------- pipeline + loss-report wiring ---------- *)

(* Recording wraps any optimizer call: every table the pipeline's
   enumeration builds is hooked, and the call's own span collector is
   untouched. *)
let test_recording_wraps_pipeline () =
  let g = chain 5 in
  let prov = Prov.create () in
  let obs = Obs.Span.create () in
  match
    Prov.with_recording prov (fun () ->
        Driver.Pipeline.optimize_graph ~obs g)
  with
  | Error m -> Alcotest.fail m
  | Ok _ ->
      check "provenance recorded around the pipeline" true
        ((Prov.stats prov).Prov.subsets > 0);
      let table = Format.asprintf "%a" Obs.Metrics.pp_table obs in
      check "profile table has a major-words column" true
        (contains "major-words" table)

(* A plan-cache hit returns the memoized plan without building a DP
   table, so there is nothing to record. *)
let test_recording_cache_hit_records_nothing () =
  let g = chain 5 in
  let cache = Driver.Pipeline.make_cache ~capacity:8 () in
  let record () =
    let prov = Prov.create () in
    (match
       Prov.with_recording prov (fun () ->
           Driver.Pipeline.optimize_graph ~cache g)
     with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    (Prov.stats prov).Prov.tables
  in
  check_int "a miss enumerates and records" 1 (record ());
  check_int "a hit builds no table" 0 (record ())

let test_loss_reports () =
  let g = Workloads.Shapes.star 6 in
  let o = Core.Adaptive.solve ~budget:50 g in
  check "fallback tier" true (o.Core.Adaptive.tier <> Core.Adaptive.Exact);
  let plan = Option.get o.Core.Adaptive.plan in
  (match Core.Adaptive.loss_report g o.Core.Adaptive.tier plan with
  | None | Some (Error _) -> Alcotest.fail "expected a loss report"
  | Some (Ok rep) ->
      check "columns labeled by tier" true
        (contains (Core.Adaptive.tier_name o.Core.Adaptive.tier) rep
        && contains "exact" rep);
      check "totals compared" true (contains "total cost" rep));
  (* exact wins -> nothing to report *)
  let exact = Core.Adaptive.solve g in
  check "no report when exact won" true
    (Core.Adaptive.loss_report g exact.Core.Adaptive.tier
       (Option.get exact.Core.Adaptive.plan)
    = None)

(* Star-29's exact DP needs billions of pairs: the loss report of its
   idp plan turns the baseline away on the min_pairs certificate at
   once instead of running it. *)
let test_loss_report_skips_hopeless_exact () =
  let g = Workloads.Shapes.star 29 in
  let o = Core.Adaptive.solve ~budget:1_000_000 g in
  check "idp-10 answers" true (o.Core.Adaptive.tier = Core.Adaptive.Idp_k 10);
  let t0 = Unix.gettimeofday () in
  (match
     Core.Adaptive.loss_report g o.Core.Adaptive.tier
       (Option.get o.Core.Adaptive.plan)
   with
  | Some (Error why) ->
      Alcotest.(check string) "the reason names the certificate"
        "needs ≥ 7784628224 pairs > cap 1000000" why
  | _ -> Alcotest.fail "expected the exact baseline to be skipped");
  check "well under a second" true (Unix.gettimeofday () -. t0 < 1.0)

let () =
  Alcotest.run "inspect"
    [
      ( "provenance",
        [
          Alcotest.test_case "records a chain run" `Quick test_record_chain;
          Alcotest.test_case "recording is scoped" `Quick test_recording_scoped;
          Alcotest.test_case "recording is domain-local" `Quick
            test_recording_domain_local;
          Alcotest.test_case "max-subsets bound" `Quick test_max_subsets_bound;
          Alcotest.test_case "max-champions bound" `Quick
            test_max_champions_bound;
          Alcotest.test_case "sampling keeps aggregates" `Quick test_sampling;
          Alcotest.test_case "context labels" `Quick test_context_labels;
        ] );
      ( "render",
        [
          Alcotest.test_case "obs_inspect/v1 json" `Quick test_to_json;
          Alcotest.test_case "dot lattice" `Quick test_to_dot;
        ] );
      ( "why",
        [
          Alcotest.test_case "suboptimal order" `Quick test_why_suboptimal;
          Alcotest.test_case "optimal order" `Quick test_why_optimal_order;
          Alcotest.test_case "error messages" `Quick test_why_errors;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "recording wraps the pipeline" `Quick
            test_recording_wraps_pipeline;
          Alcotest.test_case "cache hit records nothing" `Quick
            test_recording_cache_hit_records_nothing;
          Alcotest.test_case "adaptive loss report" `Quick test_loss_reports;
          Alcotest.test_case "loss report skips a hopeless exact baseline"
            `Quick test_loss_report_skips_hopeless_exact;
        ] );
    ]
