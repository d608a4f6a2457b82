(* Large-query tier benchmarks (the xlarge table).

   One row per 100-1000 relation graph pushed through the adaptive
   optimizer, which routes everything wider than
   Node_set.small_capacity to the partitioned tier (greedy clustering
   -> per-block exact DPhyp -> IDP-k stitch).  Every returned plan is
   Plan_check-verified and the bench ABORTS on the first invalid one —
   a large-tier plan that references a node twice or drops a relation
   must never make it into a reported table.  The headline point
   is the 128-relation star: it exceeds the historic single-word
   ceiling by more than 2x and its hub-and-spokes shape is the worst
   case for the clustering (satellites can only ever merge with the
   hub), so it exercises the IDP stitch absorbing singletons. *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

type point = { name : string; graph : G.t Lazy.t }

let points ~quick =
  let p name graph = { name; graph } in
  [
    p "star-127" (lazy (Workloads.Shapes.star 127));
    p "chain-256" (lazy (Workloads.Shapes.chain 256));
    p "snowflake-100" (lazy (Workloads.Shapes.snowflake_n 100));
  ]
  @
  if quick then []
  else
    [
      p "chain-512" (lazy (Workloads.Shapes.chain 512));
      p "grid-16x16" (lazy (Workloads.Shapes.grid ~rows:16 ~cols:16 ()));
      p "snowflake-341" (lazy (Workloads.Shapes.snowflake_n 341));
      p "snowflake-991" (lazy (Workloads.Shapes.snowflake_n 991));
    ]

(* One table row; C_out may overflow to [infinity] at these widths. *)
let row (pt : point) =
  let g = Lazy.force pt.graph in
  let ms, result = Bench_util.time_ms (fun () -> Opt.run Opt.Adaptive g) in
  let plan =
    match result.Opt.plan with
    | Some p -> p
    | None ->
        Printf.eprintf "FATAL: %s: adaptive returned no plan\n" pt.name;
        exit 1
  in
  (match Plans.Plan_check.check g plan with
  | [] -> ()
  | issues ->
      Printf.eprintf "FATAL: %s: invalid large-tier plan:\n" pt.name;
      List.iter
        (fun i ->
          Printf.eprintf "  %s\n" (Plans.Plan_check.issue_to_string i))
        issues;
      exit 1);
  [
    pt.name;
    string_of_int (G.num_nodes g);
    string_of_int (Array.length (G.edges g));
    (match result.Opt.tier with
    | Some t -> Core.Adaptive.tier_name t
    | None -> "?");
    Bench_util.fmt_ms ms;
    string_of_int result.Opt.counters.Core.Counters.pairs_considered;
    Printf.sprintf "%.3g" plan.Plans.Plan.cost;
  ]

let table ~quick () =
  Bench_util.header
    "X12: the large-query tier past the 62-relation single-word ceiling";
  Bench_util.print_table
    ~columns:[ "graph"; "rels"; "edges"; "tier"; "ms"; "pairs"; "C_out" ]
    ~rows:(List.map row (points ~quick))
