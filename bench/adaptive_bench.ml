(* Budgeted adaptive-optimization benchmark (the xadaptive table).

   One row per (graph, pair budget): which rung of the adaptive
   ladder (exact DPhyp → IDP-k → GOO, with GOO's plan first bounding
   the exact rung on dense graphs) answered, how long it took, how
   much of the budget the winner spent, how many pairs the whole
   ladder spent (a rung skipped on its certificate counts 0; GOO's
   run, which bounds a dense graph's exact rung and may answer,
   counts once), and — where exact DP is cheap enough to run
   as a reference — how far the returned plan is from the true
   optimum.  The cliques are the dense points: clique-10 at 10k pairs
   finishes its GOO-bounded exact rung, clique-12 at 5k and clique-20
   at 50k run out of it and answer with GOO's plan
   (test_differential pins all three). *)

module Opt = Core.Optimizer
module G = Hypergraph.Graph

type point = {
  name : string;
  graph : G.t;
  budget : int option;
  exact_ref : bool;  (** run unbudgeted DPhyp as a cost reference *)
}

let points ~quick =
  let p ?budget ?(exact_ref = false) name graph =
    { name; graph; budget; exact_ref }
  in
  [
    p "cycle-9" (Workloads.Shapes.cycle 9) ~exact_ref:true;
    p "clique-10" (Workloads.Shapes.clique 10) ~budget:10_000 ~exact_ref:true;
    p "clique-12" (Workloads.Shapes.clique 12) ~exact_ref:true;
    p "clique-12" (Workloads.Shapes.clique 12) ~budget:5_000 ~exact_ref:true;
    p "star-12" (Workloads.Shapes.star 12) ~budget:20_000 ~exact_ref:true;
    p "cycle-16" (Workloads.Shapes.cycle 16) ~budget:20_000;
    p "clique-20" (Workloads.Shapes.clique 20) ~budget:50_000;
  ]
  @
  if quick then []
  else
    [
      p "chain-30" (Workloads.Shapes.chain 30) ~budget:50_000;
      p "cycle16-s0"
        (List.hd (Workloads.Splits.cycle_based 16))
        ~budget:20_000;
    ]

let row (pt : point) =
  let ms, result =
    Bench_util.time_ms (fun () ->
        Opt.run ?budget:pt.budget Opt.Adaptive pt.graph)
  in
  let cost =
    match result.Opt.plan with Some p -> p.Plans.Plan.cost | None -> nan
  in
  [
    pt.name;
    string_of_int (G.num_nodes pt.graph);
    (match pt.budget with Some b -> string_of_int b | None -> "inf");
    (match result.Opt.tier with
    | Some t -> Core.Adaptive.tier_name t
    | None -> "?");
    Bench_util.fmt_ms ms;
    string_of_int result.Opt.counters.Core.Counters.pairs_considered;
    string_of_int
      (List.fold_left
         (fun acc (a : Core.Adaptive.attempt) -> acc + a.pairs)
         0 result.Opt.attempts);
    Printf.sprintf "%.3g" cost;
    (match
       if pt.exact_ref then (Opt.run Opt.Dphyp pt.graph).Opt.plan else None
     with
    | Some p -> Printf.sprintf "%.4f" (cost /. p.Plans.Plan.cost)
    | None -> "-");
  ]

let table ~quick () =
  Bench_util.header
    "X11: adaptive optimization under a pair budget (GOO bound -> DPhyp \
     -> IDP -> GOO)";
  Bench_util.print_table
    ~columns:
      [
        "graph"; "rels"; "budget"; "tier"; "ms"; "pairs"; "ladder pairs";
        "C_out"; "cost/exact";
      ]
    ~rows:(List.map row (points ~quick))
