(* Batch parallelism ({!Driver.Pipeline.run_batch}, the one place the
   library spawns domains) and the DP-table layouts of DPhyp's runs.

   The batch contract: results in input order for every jobs count;
   [jobs = 1] runs inline on the calling domain, in order; once tasks
   fail, the lowest-indexed failure surfaces; [jobs < 1] is
   Invalid_argument.  The identity cases run sequential DPhyp on
   several graphs at once and pin each result — plan, DP-table
   occupancy and every counter — to the one-domain run, so no
   enumerator state is shared between domains. *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Opt = Core.Optimizer

let check = Alcotest.(check bool)

let run_batch = Driver.Pipeline.run_batch

(* ---------- run_batch ---------- *)

let test_batch_order () =
  let xs = List.init 10 Fun.id in
  let expected = List.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (run_batch ~jobs (fun i -> i * i) xs))
    [ 1; 2; 3; 16 ];
  Alcotest.(check (list int)) "more jobs than tasks" [ 0; 1; 4 ]
    (run_batch ~jobs:8 (fun i -> i * i) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "no tasks" [] (run_batch ~jobs:3 Fun.id [])

let test_batch_inline () =
  let self = Domain.self () and order = ref [] in
  ignore
    (run_batch ~jobs:1
       (fun i ->
         check "on the calling domain" true (Domain.self () = self);
         order := i :: !order)
       [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_batch_exceptions () =
  List.iter
    (fun jobs ->
      match
        run_batch ~jobs
          (fun i -> if i = 2 || i = 5 then failwith (string_of_int i))
          (List.init 8 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected a Failure" jobs
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: lowest index" jobs)
            "2" m)
    [ 1; 2; 3 ]

let test_batch_jobs_positive () =
  List.iter
    (fun jobs ->
      match run_batch ~jobs Fun.id [ 1 ] with
      | _ -> Alcotest.failf "jobs=%d: expected Invalid_argument" jobs
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* ---------- concurrent DPhyp runs vs one domain ---------- *)

let plan_str (r : Opt.result) =
  match r.plan with
  | None -> "<none>"
  | Some p ->
      Printf.sprintf "%s cost=%.17g card=%.17g" (Plans.Plan.to_string p)
        p.Plans.Plan.cost p.Plans.Plan.card

let same_result name (seq : Opt.result) (par : Opt.result) =
  Alcotest.(check string) (name ^ ": plan") (plan_str seq) (plan_str par);
  Alcotest.(check int) (name ^ ": dp entries") seq.dp_entries par.dp_entries;
  let cs = seq.counters and cp = par.counters in
  List.iter
    (fun (what, get) ->
      Alcotest.(check int) (name ^ ": " ^ what) (get cs) (get cp))
    Core.Counters.
      [
        ("pairs_considered", fun c -> c.pairs_considered);
        ("ccp_emitted", fun c -> c.ccp_emitted);
        ("cost_calls", fun c -> c.cost_calls);
        ("filter_rejected", fun c -> c.filter_rejected);
        ("neighborhood_calls", fun c -> c.neighborhood_calls);
      ]

(* Each graph is its own task, so no two domains share a graph's
   scratch arena. *)
let batch_identity jobs graphs () =
  let graphs = graphs () in
  let seq = List.map (fun (_, g) -> Opt.run Opt.Dphyp g) graphs in
  let par = run_batch ~jobs (fun (_, g) -> Opt.run Opt.Dphyp g) graphs in
  List.iter2
    (fun ((name, _), s) p ->
      same_result (Printf.sprintf "%s/jobs%d" name jobs) s p)
    (List.combine graphs seq) par

let simple_graphs () =
  [
    ("chain9", Workloads.Shapes.chain 9);
    ("cycle9", Workloads.Shapes.cycle 9);
    ("cycle10", Workloads.Shapes.cycle 10);
    ("star8", Workloads.Shapes.star 8);
    ("clique8", Workloads.Shapes.clique 8);
    ("grid3x3", Workloads.Shapes.grid ~rows:3 ~cols:3 ());
  ]

let hyper_graphs () =
  List.mapi
    (fun i g -> (Printf.sprintf "cycle8-split%d" i, g))
    (Workloads.Splits.cycle_based 8)
  @ List.init 6 (fun i ->
        ( Printf.sprintf "random-hyper-%d" i,
          Workloads.Random_graphs.hyper ~seed:(i * 991) ~n:(6 + (i mod 3))
            ~extra_edges:2 ~hyperedges:2 ~max_hypernode:3 () ))

(* n > 18: the flat subset index and flat DP table both give way to
   hash tables. *)
let hashed_graphs () =
  [
    ("chain20", Workloads.Shapes.chain 20);
    ("cycle20", Workloads.Shapes.cycle 20);
    ("chain22", Workloads.Shapes.chain 22);
    ("cycle21", Workloads.Shapes.cycle 21);
  ]

(* ---------- DP table pre-sizing (n > 18 fallback) ---------- *)

let test_presize_no_resize () =
  List.iter
    (fun (name, g) ->
      let fresh = Plans.Dp_table.create_for g in
      let b0 =
        match Plans.Dp_table.hash_stats fresh with
        | Some s -> s.Hashtbl.num_buckets
        | None -> Alcotest.failf "%s: expected a hashed table" name
      in
      let dp, _ = Core.Dphyp.solve_with_table g in
      match Plans.Dp_table.hash_stats dp with
      | None -> Alcotest.failf "%s: expected a hashed table" name
      | Some { Hashtbl.num_buckets = buckets; num_bindings = bindings; _ } ->
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

(* The hash index must spread the sets DPhyp stores.  A chain's csgs
   are runs of contiguous bits and a cycle's are runs that may wrap,
   so their raw patterns share low bits, and a weak mix crowds them
   into a few buckets.  Of chain-62's 1,953 csgs in 8,192 buckets,
   one multiply and one xor-shift put 153 into one bucket and the
   runtime's [Hashtbl.hash] of the pattern 31; the two-round mix
   puts 4.  Every csg of chain-62 and cycle-50 has an entry; the
   longest bucket stays short. *)
let test_hash_spread () =
  List.iter
    (fun (name, g, csgs) ->
      let dp, _ = Core.Dphyp.solve_with_table g in
      match Plans.Dp_table.hash_stats dp with
      | None -> Alcotest.failf "%s: expected a hashed table" name
      | Some st ->
          Alcotest.(check int) (name ^ ": one entry per csg") csgs
            st.Hashtbl.num_bindings;
          if st.max_bucket_length > 8 then
            Alcotest.failf "%s: %d sets share one of %d buckets" name
              st.max_bucket_length st.num_buckets)
    [
      ("chain62", Workloads.Shapes.chain 62, 62 * 63 / 2);
      ("cycle50", Workloads.Shapes.cycle 50, (50 * 49) + 1);
    ]

(* A block's DP runs on the block's induced subgraph, so its table is
   a flat 2^|block| index however wide the graph: a 10-node block of
   a 40-node star, a 100-node snowflake or a 100-node chain (nodes
   45..54, high in their word) gets a flat table of exactly the
   block's connected subsets.  The block grows breadth-first from the
   given node over simple edges. *)
let test_block_table_flat () =
  let block_of g k start =
    let rec grow block frontier =
      if Ns.cardinal block >= k then block
      else
        match Ns.min_elt_opt frontier with
        | None -> block
        | Some v ->
            let block = Ns.add v block in
            grow block
              (Ns.diff (Ns.union frontier (G.simple_neighbors g v)) block)
    in
    grow Ns.empty (Ns.singleton start)
  in
  List.iter
    (fun (name, g, start) ->
      let subset = block_of g 10 start in
      Alcotest.(check int) (name ^ ": block of 10") 10 (Ns.cardinal subset);
      let tables = ref [] in
      let b =
        Plans.Dp_table.with_create_observer
          (fun t -> tables := t :: !tables)
          (fun () ->
            Core.Idp.solve_block ~model:Costing.Cost_model.c_out
              ~counters:(Core.Counters.create ()) (Core.Idp.start g) ~label:""
              ~span:"" ~attrs:[] subset (fun _ b -> b))
      in
      Alcotest.(check int) (name ^ ": one table") 1 (List.length !tables);
      check (name ^ ": it is the block's") true (List.hd !tables == b.Core.Idp.dp);
      Alcotest.(check int)
        (name ^ ": built on the block's nodes")
        10
        (G.num_nodes b.Core.Idp.ind.G.sub);
      check (name ^ ": flat index") true (Plans.Dp_table.hash_stats b.dp = None);
      Alcotest.(check int)
        (name ^ ": one entry per connected subset")
        (Hypergraph.Csg_enum.count_connected_subgraphs b.ind.G.sub)
        (Plans.Dp_table.size b.dp);
      check (name ^ ": block solved") true
        (match b.plan with
        | Some p -> Ns.equal p.Plans.Plan.set subset
        | None -> false))
    [
      ("star40", Workloads.Shapes.star 39, 0);
      ("snowflake100", Workloads.Shapes.snowflake_n 100, 0);
      ("chain100 from R45", Workloads.Shapes.chain 100, 45);
    ]

(* Every table a partitioned run creates — each block's and each
   IDP round's — is built on a narrow induced subgraph, so none of
   them falls back to hashing. *)
let test_partitioned_tables_flat () =
  let tables = ref [] in
  let plan =
    Plans.Dp_table.with_create_observer
      (fun t -> tables := t :: !tables)
      (fun () -> Core.Partition.solve (Workloads.Shapes.snowflake_n 80))
  in
  check "planned" true (plan <> None);
  Alcotest.(check int) "tables: 8 blocks and 2 rounds" 10 (List.length !tables);
  List.iter
    (fun t -> check "flat index" true (Plans.Dp_table.hash_stats t = None))
    !tables

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

(* The batch closure: the ordinary pipeline call. *)
let optimize t = Driver.Pipeline.optimize_tree t

let test_run_batch () =
  let trees = batch_trees () in
  let seq =
    List.map (fun t -> Driver.Pipeline.optimize_tree t) trees
  in
  let par = Driver.Pipeline.run_batch ~jobs:3 optimize trees in
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

(* The closure carries every pipeline parameter, so a batch can run
   what a single call can — here IDP at two block sizes over a skewed
   catalog.  Each plan costs exactly what a direct IDP run at its block
   size returns, and the two sizes differ on at least one query, so a
   dropped block size would show. *)
let test_run_batch_idp_block () =
  let cards = [| 10.; 100000.; 50.; 3000.; 7.; 800.; 20000. |]
  and sels = [| 0.5; 0.001; 0.2; 0.01; 0.05; 0.3 |] in
  let trees =
    List.map
      (fun sql ->
        match Sqlfront.Binder.parse_and_bind sql with
        | Ok b -> b.Sqlfront.Binder.tree
        | Error m -> Alcotest.failf "parse %S: %s" sql m)
      [
        "SELECT * FROM h, s1, s2, s3, s4, s5 WHERE h.a = s1.a AND h.b = \
         s2.b AND h.c = s3.c AND h.d = s4.d AND h.e = s5.e";
        "SELECT * FROM a, b, c, d, e, f, g WHERE a.x = b.x AND b.y = c.y \
         AND c.z = d.z AND d.w = e.w AND e.v = f.v AND f.u = g.u";
      ]
  in
  let idp k t =
    Driver.Pipeline.optimize_tree ~algo:(Opt.Idp { k })
      ~cards:(Array.get cards)
      ~sels:(Array.get sels) t
  in
  let plan = function
    | Ok r -> r.Driver.Pipeline.plan
    | Error m -> Alcotest.fail m
  in
  let batch k =
    let par = Driver.Pipeline.run_batch ~jobs:2 (idp k) trees in
    List.iteri
      (fun i (t, p) ->
        Alcotest.(check string)
          (Printf.sprintf "k = %d, query %d: same plan" k i)
          (Plans.Plan.to_string (plan (idp k t)))
          (Plans.Plan.to_string (plan p));
        let g = (Result.get_ok p).Driver.Pipeline.graph in
        Alcotest.(check (float 0.0))
          (Printf.sprintf "k = %d, query %d: costs the direct run" k i)
          (Option.get (Core.Idp.solve ~k g)).Plans.Plan.cost
          (plan p).Plans.Plan.cost)
      (List.combine trees par);
    List.map (fun p -> Plans.Plan.to_string (plan p)) par
  in
  check "the block size changes a plan" true (batch 2 <> batch 7)

let () =
  Alcotest.run "parallel"
    [
      ( "batch",
        [
          Alcotest.test_case "results in input order" `Quick test_batch_order;
          Alcotest.test_case "jobs=1 inline" `Quick test_batch_inline;
          Alcotest.test_case "lowest-indexed failure surfaces" `Quick
            test_batch_exceptions;
          Alcotest.test_case "jobs < 1 rejected" `Quick
            test_batch_jobs_positive;
          Alcotest.test_case "run_batch matches sequential" `Quick
            test_run_batch;
          Alcotest.test_case "closure sets the idp block size" `Quick
            test_run_batch_idp_block;
        ] );
      ( "identity",
        [
          Alcotest.test_case "jobs=1 (dispatches sequential)" `Quick
            (batch_identity 1 simple_graphs);
          Alcotest.test_case "jobs=2 simple shapes (all counters)" `Quick
            (batch_identity 2 simple_graphs);
          Alcotest.test_case "jobs=4 simple shapes (all counters)" `Quick
            (batch_identity 4 simple_graphs);
          Alcotest.test_case "jobs=3 hypergraphs (plans + emission)" `Quick
            (batch_identity 3 hyper_graphs);
          Alcotest.test_case "jobs=4 hashed tables (n=20)" `Slow
            (batch_identity 4 hashed_graphs);
        ] );
      ( "dp-table",
        [
          Alcotest.test_case "pre-sized hashtbl never resizes" `Quick
            test_presize_no_resize;
          Alcotest.test_case "contiguous runs spread over the buckets" `Quick
            test_hash_spread;
          Alcotest.test_case "a block's table is a flat 2^|block| index"
            `Quick test_block_table_flat;
          Alcotest.test_case "snowflake-80 builds only flat tables" `Quick
            test_partitioned_tables_flat;
        ] );
    ]
