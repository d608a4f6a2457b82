(* Domain pool behavior and parallel-vs-sequential DPhyp identity.

   The contract under test is strong: for every jobs count the
   parallel enumerator must return the byte-identical plan, the same
   DP-table occupancy and the same emission-side counters as the
   sequential algorithm.  On purely simple (inner-join) graphs the
   connectivity oracle coincides with dpTable membership, so even the
   enumeration-side counters (pairs considered, neighborhood calls)
   are pinned; on hypergraphs the oracle may legitimately
   over-approximate, so only plan/table/emission identity is
   asserted there. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer
module P = Parallel.Pool
module Pd = Parallel.Par_dphyp

let check = Alcotest.(check bool)

(* ---------- pool ---------- *)

let test_pool_basics () =
  P.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "jobs" 4 (P.jobs p);
      let a = Array.make 100 0 in
      P.run_fun p 100 (fun i _wid -> a.(i) <- i * i);
      Array.iteri
        (fun i v -> Alcotest.(check int) "task result" (i * i) v)
        a;
      (* pool is reusable across batches, worker ids stay in range *)
      let wid_ok = Array.make 16 true in
      P.run_fun p 16 (fun i wid -> wid_ok.(i) <- wid >= 0 && wid < 4);
      Array.iter (fun ok -> check "wid in range" true ok) wid_ok;
      let st = P.stats p in
      Alcotest.(check int) "tasks_run" 116 st.P.tasks_run;
      Alcotest.(check int) "batches" 2 st.P.batches)

let test_pool_sequential_inline () =
  (* jobs = 1 spawns no domains: tasks run inline, in order *)
  P.with_pool ~jobs:1 (fun p ->
      let order = ref [] in
      P.run_fun p 5 (fun i wid ->
          Alcotest.(check int) "wid" 0 wid;
          order := i :: !order);
      Alcotest.(check (list int)) "in-order" [ 0; 1; 2; 3; 4 ]
        (List.rev !order))

let test_pool_exceptions () =
  P.with_pool ~jobs:3 (fun p ->
      (* the lowest-indexed failure wins regardless of interleaving *)
      (match
         P.run_list p
           (List.init 20 (fun i _wid ->
                if i >= 5 then failwith (string_of_int i)))
       with
      | () -> Alcotest.fail "expected a Failure"
      | exception Failure m -> Alcotest.(check string) "lowest index" "5" m);
      (* the pool survives a failing batch *)
      let ran = ref false in
      P.run_fun p 1 (fun _ _ -> ran := true);
      check "usable after failure" true !ran);
  let p = P.create ~jobs:2 in
  P.shutdown p;
  P.shutdown p;
  (* idempotent *)
  match P.run_fun p 1 (fun _ _ -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* ---------- parallel DPhyp vs sequential ---------- *)

let plan_str (r : Opt.result) =
  match r.plan with
  | None -> "<none>"
  | Some p ->
      Printf.sprintf "%s cost=%.17g card=%.17g" (Plans.Plan.to_string p)
        p.Plans.Plan.cost p.Plans.Plan.card

let same_result ~strict name (seq : Opt.result) (par : Opt.result) =
  Alcotest.(check string) (name ^ ": plan") (plan_str seq) (plan_str par);
  Alcotest.(check int) (name ^ ": dp entries") seq.dp_entries par.dp_entries;
  let cs = seq.counters and cp = par.counters in
  Alcotest.(check int)
    (name ^ ": ccp_emitted")
    cs.Core.Counters.ccp_emitted cp.Core.Counters.ccp_emitted;
  Alcotest.(check int) (name ^ ": cost_calls") cs.cost_calls cp.cost_calls;
  Alcotest.(check int)
    (name ^ ": filter_rejected")
    cs.filter_rejected cp.filter_rejected;
  if strict then begin
    Alcotest.(check int)
      (name ^ ": pairs_considered")
      cs.pairs_considered cp.pairs_considered;
    Alcotest.(check int)
      (name ^ ": neighborhood_calls")
      cs.neighborhood_calls cp.neighborhood_calls
  end

let par_graphs ~strict =
  if strict then
    [
      ("chain9", Workloads.Shapes.chain 9);
      ("cycle9", Workloads.Shapes.cycle 9);
      ("cycle10", Workloads.Shapes.cycle 10);
      ("star8", Workloads.Shapes.star 8);
      ("clique8", Workloads.Shapes.clique 8);
      ("grid3x3", Workloads.Shapes.grid ~rows:3 ~cols:3 ());
    ]
  else
    List.mapi
      (fun i g -> (Printf.sprintf "cycle8-split%d" i, g))
      (Workloads.Splits.cycle_based 8)
    @ List.init 6 (fun i ->
          ( Printf.sprintf "random-hyper-%d" i,
            Workloads.Random_graphs.hyper ~seed:(i * 991) ~n:(6 + (i mod 3))
              ~extra_edges:2 ~hyperedges:2 ~max_hypernode:3 () ))

let par_identity ~strict jobs () =
  P.with_pool ~jobs (fun pool ->
      List.iter
        (fun (name, g) ->
          let seq = Opt.run Opt.Dphyp g in
          let par = Pd.run ~pool g in
          same_result ~strict (Printf.sprintf "%s/jobs%d" name jobs) seq par)
        (par_graphs ~strict))

(* n > 18: the flat subset oracle and flat DP table both give way to
   hash tables; identity must survive the representation switch. *)
let test_par_identity_hashed () =
  P.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (name, g) ->
          let seq = Opt.run Opt.Dphyp g in
          let par = Pd.run ~pool g in
          same_result ~strict:true name seq par)
        [
          ("chain20", Workloads.Shapes.chain 20);
          ("cycle20", Workloads.Shapes.cycle 20);
        ])

(* The oracle may only ever over-approximate Definition 3 — a miss
   would prune real csg-cmp-pairs and silently change plans. *)
let test_oracle_overapproximates () =
  List.iter
    (fun (_, g) ->
      let cache = Hypergraph.Connectivity.make_cache g in
      let n = G.num_nodes g in
      for key = 1 to (1 lsl n) - 1 do
        let s = Ns.unsafe_of_int key in
        if Hypergraph.Connectivity.is_connected cache s then
          check "weak closure covers Def. 3" true (Pd.connected_weakly g s)
      done)
    (par_graphs ~strict:false)

(* Shared-budget semantics: the total considered pairs across all
   domains is capped, so a query whose sequential enumeration blows
   the budget must also blow it under every jobs count (clique-20
   exercises the hashed representations on the way). *)
let test_budget_parallel () =
  let g = Workloads.Shapes.clique 20 in
  P.with_pool ~jobs:4 (fun pool ->
      match Pd.run ~budget:50_000 ~pool g with
      | _ -> Alcotest.fail "expected Budget_exhausted"
      | exception Core.Counters.Budget_exhausted -> ())

(* ---------- DP table pre-sizing (n > 18 fallback) ---------- *)

let test_presize_no_resize () =
  List.iter
    (fun (name, g) ->
      let fresh = Plans.Dp_table.create_for g in
      let b0 =
        match Plans.Dp_table.hash_stats fresh with
        | Some (buckets, _) -> buckets
        | None -> Alcotest.failf "%s: expected a hashed table" name
      in
      let dp, _ = Core.Dphyp.solve_with_table g in
      match Plans.Dp_table.hash_stats dp with
      | None -> Alcotest.failf "%s: expected a hashed table" name
      | Some (buckets, bindings) ->
          Alcotest.(check int)
            (name ^ ": buckets unchanged, i.e. no resize")
            b0 buckets;
          check (name ^ ": table was actually used") true (bindings > 0);
          check
            (name ^ ": estimate left headroom")
            true
            (bindings <= 2 * buckets))
    [
      ("chain20", Workloads.Shapes.chain 20);
      ("cycle20", Workloads.Shapes.cycle 20);
      ("grid4x5", Workloads.Shapes.grid ~rows:4 ~cols:5 ());
    ]

(* ---------- batch pipeline ---------- *)

let batch_sql =
  [
    "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y";
    "SELECT * FROM a, b, c, d WHERE a.x = b.x AND b.y = c.y AND c.z = d.z \
     AND d.w = a.w";
    "SELECT * FROM h, s1, s2, s3 WHERE h.a = s1.a AND h.b = s2.b AND h.c = \
     s3.c";
    "SELECT * FROM a, b WHERE a.x = b.x";
  ]

let batch_trees () =
  List.map
    (fun sql ->
      match Sqlfront.Binder.parse_and_bind sql with
      | Ok b -> b.Sqlfront.Binder.tree
      | Error m -> Alcotest.failf "parse %S: %s" sql m)
    batch_sql

let test_run_batch () =
  let trees = batch_trees () in
  let seq =
    List.map (fun t -> Driver.Pipeline.optimize_tree t) trees
  in
  let par = Driver.Pipeline.run_batch ~jobs:3 trees in
  Alcotest.(check int) "result count" (List.length seq) (List.length par);
  List.iteri
    (fun i (s, p) ->
      match (s, p) with
      | Ok s, Ok p ->
          Alcotest.(check string)
            (Printf.sprintf "query %d: same plan" i)
            (Plans.Plan.to_string s.Driver.Pipeline.plan)
            (Plans.Plan.to_string p.Driver.Pipeline.plan)
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "query %d: error" i) a b
      | _ -> Alcotest.failf "query %d: Ok/Error mismatch" i)
    (List.combine seq par)

let test_run_batch_shared_sink () =
  let spans = ref [] in
  let sink = Obs.Sink.Memory spans in
  let results = Driver.Pipeline.run_batch ~sink ~jobs:4 (batch_trees ()) in
  List.iter
    (fun r ->
      match r with
      | Ok r -> check "profile present" true (r.Driver.Pipeline.profile <> None)
      | Error m -> Alcotest.fail m)
    results;
  (* every query streamed its pipeline spans into the one sink *)
  let enum_spans =
    List.filter
      (fun (s : Obs.Sink.span) ->
        String.length s.name >= 9 && String.sub s.name 0 9 = "enumerate")
      !spans
  in
  Alcotest.(check int) "one enumerate span per query"
    (List.length batch_sql) (List.length enum_spans)

(* ?pool reuse: two batches on one externally owned pool — the serving
   configuration — must run on that pool (its batch counter moves) and
   the pool must survive for the caller, producing the same plans as
   the own-pool path. *)
let test_run_batch_pool_reuse () =
  let trees = batch_trees () in
  let own_pool = Driver.Pipeline.run_batch ~jobs:2 trees in
  P.with_pool ~jobs:2 (fun pool ->
      let b0 = (P.stats pool).P.batches in
      let first = Driver.Pipeline.run_batch ~pool ~jobs:7 trees in
      let second = Driver.Pipeline.run_batch ~pool ~jobs:7 trees in
      Alcotest.(check int) "both batches ran on the given pool" (b0 + 2)
        (P.stats pool).P.batches;
      List.iter
        (fun results ->
          List.iteri
            (fun i (a, b) ->
              match (a, b) with
              | Ok a, Ok b ->
                  Alcotest.(check string)
                    (Printf.sprintf "query %d: same plan on reused pool" i)
                    (Plans.Plan.to_string a.Driver.Pipeline.plan)
                    (Plans.Plan.to_string b.Driver.Pipeline.plan)
              | Error a, Error b ->
                  Alcotest.(check string) "same error" a b
              | _ -> Alcotest.failf "query %d: Ok/Error mismatch" i)
            (List.combine own_pool results))
        [ first; second ];
      (* the pool is still usable after run_batch returned *)
      let ran = ref false in
      P.run_fun pool 1 (fun _ _ -> ran := true);
      Alcotest.(check bool) "pool survives run_batch" true !ran)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "basics" `Quick test_pool_basics;
          Alcotest.test_case "jobs=1 inline" `Quick
            test_pool_sequential_inline;
          Alcotest.test_case "exceptions" `Quick test_pool_exceptions;
        ] );
      ( "identity",
        [
          Alcotest.test_case "jobs=1 (dispatches sequential)" `Quick
            (par_identity ~strict:true 1);
          Alcotest.test_case "jobs=2 simple shapes (all counters)" `Quick
            (par_identity ~strict:true 2);
          Alcotest.test_case "jobs=4 simple shapes (all counters)" `Quick
            (par_identity ~strict:true 4);
          Alcotest.test_case "jobs=3 hypergraphs (plans + emission)" `Quick
            (par_identity ~strict:false 3);
          Alcotest.test_case "jobs=4 hashed tables (n=20)" `Slow
            test_par_identity_hashed;
          Alcotest.test_case "oracle over-approximates Def. 3" `Quick
            test_oracle_overapproximates;
        ] );
      ( "budget",
        [ Alcotest.test_case "shared budget fires" `Quick test_budget_parallel ]
      );
      ( "dp-table",
        [
          Alcotest.test_case "pre-sized hashtbl never resizes" `Quick
            test_presize_no_resize;
        ] );
      ( "batch",
        [
          Alcotest.test_case "run_batch matches sequential" `Quick
            test_run_batch;
          Alcotest.test_case "shared sink collects all queries" `Quick
            test_run_batch_shared_sink;
          Alcotest.test_case "reuses an external pool" `Quick
            test_run_batch_pool_reuse;
        ] );
    ]
