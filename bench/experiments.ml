(* One function per table/figure of the paper (see DESIGN.md §3),
   plus the extension experiments X1–X5.  Every function prints the
   same rows/series the paper reports: optimization time per
   algorithm over the x-axis of the original plot, with the
   machine-independent csg-cmp-pair and candidate-pair counters next
   to the wall clock. *)

open Bench_util
module Opt = Core.Optimizer

let algo_results ?(algos = Opt.[ Dphyp; Dpsize; Dpsub ]) g =
  List.map (fun a -> (a, measure a g)) algos

let split_family_experiment ~title ~family ~quick =
  header title;
  let rows = ref [] in
  List.iteri
    (fun splits g ->
      let skip_heavy =
        quick && Hypergraph.Graph.num_nodes g >= 14 && splits >= 2
      in
      let algos =
        if skip_heavy then Opt.[ Dphyp; Dpsize ] else Opt.[ Dphyp; Dpsize; Dpsub ]
      in
      let res = algo_results ~algos g in
      let cell a =
        match List.assoc_opt a res with
        | Some m -> (fmt_ms m.ms, string_of_int m.ccp, string_of_int m.pairs)
        | None -> ("-", "-", "-")
      in
      let h, hc, _ = cell Opt.Dphyp in
      let s, _, sp = cell Opt.Dpsize in
      let u, _, up = cell Opt.Dpsub in
      rows := [ string_of_int splits; h; s; u; hc; sp; up ] :: !rows)
    family;
  print_table
    ~columns:
      [
        "splits"; "DPhyp[ms]"; "DPsize[ms]"; "DPsub[ms]"; "#ccp";
        "DPsize-pairs"; "DPsub-pairs";
      ]
    ~rows:(List.rev !rows)

(* T1: cycle with 4 relations (§4.2 table) *)
let table1 ~quick:_ () =
  split_family_experiment
    ~title:"Table 1 (sec 4.2): cycle-based hypergraphs, 4 relations"
    ~family:(Workloads.Splits.cycle_based 4) ~quick:false

(* F5a / F5b: cycles with 8 and 16 relations *)
let fig5a ~quick:_ () =
  split_family_experiment
    ~title:"Figure 5 (left): cycle-based hypergraphs, 8 relations"
    ~family:(Workloads.Splits.cycle_based 8) ~quick:false

let fig5b ~quick () =
  split_family_experiment
    ~title:"Figure 5 (right): cycle-based hypergraphs, 16 relations"
    ~family:(Workloads.Splits.cycle_based 16) ~quick

(* T2: star with 4 satellites (§4.3 table) *)
let table2 ~quick:_ () =
  split_family_experiment
    ~title:"Table 2 (sec 4.3): star-based hypergraphs, 4 satellites"
    ~family:(Workloads.Splits.star_based 4) ~quick:false

(* F6a / F6b: stars with 8 and 16 satellites *)
let fig6a ~quick:_ () =
  split_family_experiment
    ~title:"Figure 6 (left): star-based hypergraphs, 8 satellites"
    ~family:(Workloads.Splits.star_based 8) ~quick:false

let fig6b ~quick () =
  split_family_experiment
    ~title:"Figure 6 (right): star-based hypergraphs, 16 satellites"
    ~family:(Workloads.Splits.star_based 16) ~quick

(* F7: regular star queries, 3..16 relations, log scale in the paper *)
let fig7 ~quick () =
  header "Figure 7: star queries without hyperedges (regular graphs)";
  let max_n = if quick then 13 else 16 in
  let rows = ref [] in
  for n = 3 to max_n do
    let g = Workloads.Shapes.star (n - 1) in
    (* n relations total: hub + (n-1) satellites *)
    let res = algo_results g in
    let get a = List.assoc a res in
    let h = get Opt.Dphyp and s = get Opt.Dpsize and u = get Opt.Dpsub in
    rows :=
      [
        string_of_int n; fmt_ms h.ms; fmt_ms s.ms; fmt_ms u.ms;
        string_of_int h.ccp; string_of_int s.pairs; string_of_int u.pairs;
      ]
      :: !rows
  done;
  print_table
    ~columns:
      [
        "relations"; "DPhyp[ms]"; "DPsize[ms]"; "DPsub[ms]"; "#ccp";
        "DPsize-pairs"; "DPsub-pairs";
      ]
    ~rows:(List.rev !rows)

(* F8a: star query, 16 relations, increasing number of antijoins;
   DPhyp on TES-derived hypernodes vs DPhyp with TES generate-and-test *)
let fig8a ~quick () =
  header
    "Figure 8a: left-deep star, 16 relations, k antijoins — hypernodes vs \
     TES tests";
  let n_rel = 16 in
  let ks = if quick then [ 0; 2; 4; 6; 8; 10; 12; 15 ] else List.init 16 Fun.id in
  let rows = ref [] in
  List.iter
    (fun k ->
      let tree = Workloads.Noninner.star_antijoins ~n_rel ~k () in
      let analysis = Conflicts.Analysis.analyze ~conservative:true tree in
      let cards = Workloads.Noninner.catalog_of tree in
      let g = Conflicts.Derive.hypergraph ~cards analysis in
      let m_hyper = measure Opt.Dphyp g in
      let gs, filter = Conflicts.Derive.ses_graph ~cards analysis in
      let ms_tes, res_tes =
        time_ms (fun () -> Opt.run ~filter Opt.Dphyp gs)
      in
      let rejected =
        res_tes.Opt.counters.Core.Counters.filter_rejected
      in
      rows :=
        [
          string_of_int k;
          fmt_ms m_hyper.ms;
          fmt_ms ms_tes;
          string_of_int m_hyper.ccp;
          string_of_int
            res_tes.Opt.counters.Core.Counters.ccp_emitted;
          string_of_int rejected;
        ]
        :: !rows)
    ks;
  print_table
    ~columns:
      [
        "antijoins"; "hypernodes[ms]"; "TES-tests[ms]"; "#ccp";
        "TES-ccp"; "TES-rejected";
      ]
    ~rows:(List.rev !rows)

(* F8b: cycle query, 16 relations, increasing number of outer joins;
   DPhyp vs DPsize (DPsub excluded in the paper: "> 1400 ms") *)
let fig8b ~quick () =
  header
    "Figure 8b: left-deep cycle, 16 relations, k left outer joins — DPhyp \
     vs DPsize";
  let n_rel = 16 in
  let ks = if quick then [ 0; 2; 4; 6; 8; 10; 12; 15 ] else List.init 16 Fun.id in
  let rows = ref [] in
  List.iter
    (fun k ->
      let tree = Workloads.Noninner.cycle_outerjoins ~n_rel ~k () in
      let analysis = Conflicts.Analysis.analyze ~conservative:true tree in
      let cards = Workloads.Noninner.catalog_of tree in
      let g = Conflicts.Derive.hypergraph ~cards analysis in
      let mh = measure Opt.Dphyp g in
      let ms = measure Opt.Dpsize g in
      rows :=
        [
          string_of_int k; fmt_ms mh.ms; fmt_ms ms.ms; string_of_int mh.ccp;
          string_of_int ms.pairs;
        ]
        :: !rows)
    ks;
  print_table
    ~columns:[ "outerjoins"; "DPhyp[ms]"; "DPsize[ms]"; "#ccp"; "DPsize-pairs" ]
    ~rows:(List.rev !rows)

(* X1: machine-independent csg-cmp-pair counts vs brute force *)
let ccp_counts ~quick:_ () =
  header "X1: csg-cmp-pair counts — DPhyp emission vs brute force";
  let cases =
    [
      ("chain-8", Workloads.Shapes.chain 8);
      ("cycle-8", Workloads.Shapes.cycle 8);
      ("star-7", Workloads.Shapes.star 7);
      ("clique-7", Workloads.Shapes.clique 7);
      ("grid-2x4", Workloads.Shapes.grid ~rows:2 ~cols:4 ());
    ]
    @ List.mapi
        (fun i g -> (Printf.sprintf "cycle8-s%d" i, g))
        (Workloads.Splits.cycle_based 8)
    @ List.mapi
        (fun i g -> (Printf.sprintf "star8-s%d" i, g))
        (Workloads.Splits.star_based 8)
  in
  let rows =
    List.map
      (fun (name, g) ->
        let emitted = List.length (Core.Dphyp.enumerate_ccps g) in
        let brute = Hypergraph.Csg_enum.count_csg_cmp_pairs g in
        let csg = Hypergraph.Csg_enum.count_connected_subgraphs g in
        [
          name; string_of_int csg; string_of_int brute; string_of_int emitted;
          (if emitted = brute then "ok" else "MISMATCH");
        ])
      cases
  in
  print_table ~columns:[ "graph"; "#csg"; "#ccp(brute)"; "#ccp(DPhyp)"; "" ] ~rows

(* X2: chain and clique sweeps over all algorithms *)
let sweep ~title ~make ~ns ~algos () =
  header title;
  let rows =
    List.map
      (fun n ->
        let g = make n in
        let res = algo_results ~algos g in
        string_of_int n
        :: List.concat_map
             (fun a ->
               match List.assoc_opt a res with
               | Some m -> [ fmt_ms m.ms ]
               | None -> [ "-" ])
             algos)
      ns
  in
  print_table
    ~columns:
      ("n" :: List.map (fun a -> Opt.name a ^ "[ms]") algos)
    ~rows

let xchain ~quick () =
  sweep ~title:"X2a: chain queries, all algorithms"
    ~make:Workloads.Shapes.chain
    ~ns:(if quick then [ 4; 8; 12 ] else [ 4; 6; 8; 10; 12; 14 ])
    ~algos:Opt.[ Dphyp; Dpccp; Dpsize; Dpsub; Topdown; Goo ]
    ()

let xclique ~quick () =
  sweep ~title:"X2b: clique queries, all algorithms"
    ~make:Workloads.Shapes.clique
    ~ns:(if quick then [ 4; 6; 8 ] else [ 4; 6; 8; 10; 12 ])
    ~algos:Opt.[ Dphyp; Dpccp; Dpsize; Dpsub; Topdown; Goo ]
    ()

(* X3: generalized (u,v,w) hyperedges — the §6 flexibility shrinks the
   search space compared to pinning the flexible relations, and stays
   cheaper than a full clique-like unordered treatment *)
let xgen ~quick:_ () =
  header "X3: generalized hyperedges (sec 6) — effect of w-flexibility";
  let rels_of n =
    Array.init n (fun i -> Hypergraph.Graph.base_rel (Printf.sprintf "T%d" i))
  in
  let ns' = Nodeset.Node_set.of_list in
  let chain_edges n =
    List.init (n - 1) (fun i -> Hypergraph.Hyperedge.simple ~id:i i (i + 1))
  in
  let rows =
    List.map
      (fun n ->
        let rels = rels_of n in
        let chain = chain_edges n in
        let id = n - 1 in
        (* flexible: (u={0}, v={n-1}, w={mid...}) *)
        let flex =
          Hypergraph.Hyperedge.make ~id
            ~w:(ns' [ (n / 2) - 1; n / 2 ])
            (ns' [ 0 ]) (ns' [ n - 1 ])
        in
        let pinned =
          Hypergraph.Hyperedge.make ~id
            (ns' [ 0; (n / 2) - 1; n / 2 ])
            (ns' [ n - 1 ])
        in
        let g_flex =
          Hypergraph.Graph.make rels (Array.of_list (chain @ [ flex ]))
        in
        let g_pin =
          Hypergraph.Graph.make rels (Array.of_list (chain @ [ pinned ]))
        in
        let mf = measure Opt.Dphyp g_flex and mp = measure Opt.Dphyp g_pin in
        [
          string_of_int n; string_of_int mf.ccp; string_of_int mp.ccp;
          fmt_ms mf.ms; fmt_ms mp.ms;
        ])
      [ 6; 8; 10; 12 ]
  in
  print_table
    ~columns:[ "n"; "#ccp flex-w"; "#ccp pinned"; "flex[ms]"; "pinned[ms]" ]
    ~rows

(* X4: GOO greedy vs DP optimum *)
let xgoo ~quick:_ () =
  header "X4: greedy (GOO) plan quality vs DPhyp optimum (C_out)";
  let cases =
    [
      ("chain-10", Workloads.Shapes.chain 10);
      ("cycle-10", Workloads.Shapes.cycle 10);
      ("star-9", Workloads.Shapes.star 9);
      ("clique-8", Workloads.Shapes.clique 8);
      ("grid-3x3", Workloads.Shapes.grid ~rows:3 ~cols:3 ());
    ]
    @ List.init 5 (fun seed ->
          ( Printf.sprintf "rand-%d" seed,
            Workloads.Random_graphs.simple ~seed ~n:10 ~extra_edges:5 () ))
  in
  let rows =
    List.map
      (fun (name, g) ->
        let opt = measure Opt.Dphyp g and goo = measure Opt.Goo g in
        [
          name;
          Printf.sprintf "%.4g" opt.cost;
          Printf.sprintf "%.4g" goo.cost;
          Printf.sprintf "%.2fx" (goo.cost /. opt.cost);
          fmt_ms opt.ms;
          fmt_ms goo.ms;
        ])
      cases
  in
  print_table
    ~columns:
      [ "graph"; "optimal cost"; "GOO cost"; "ratio"; "DPhyp[ms]"; "GOO[ms]" ]
    ~rows

(* X5: naive top-down memoization vs DPhyp *)
let xtopdown ~quick () =
  sweep
    ~title:
      "X5: top-down enumeration — naive memoization vs partition search vs \
       DPhyp (cycle queries)"
    ~make:Workloads.Shapes.cycle
    ~ns:(if quick then [ 6; 10 ] else [ 6; 8; 10; 12; 14; 16 ])
    ~algos:Opt.[ Dphyp; Tdpart; Topdown ]
    ()

(* X6: TPC-H join graphs — realistic catalog skew *)
let xtpch ~quick:_ () =
  header "X6: TPC-H query join graphs (scale factor 1)";
  let rows =
    List.map
      (fun name ->
        let g = Workloads.Tpch.query name in
        let res =
          algo_results ~algos:Opt.[ Dphyp; Dpsize; Dpsub; Goo ] g
        in
        let get a = List.assoc a res in
        let h = get Opt.Dphyp and s = get Opt.Dpsize and u = get Opt.Dpsub in
        let goo = get Opt.Goo in
        [
          name;
          string_of_int (Hypergraph.Graph.num_nodes g);
          fmt_ms h.ms; fmt_ms s.ms; fmt_ms u.ms;
          Printf.sprintf "%.4g" h.cost;
          Printf.sprintf "%.2fx" (goo.cost /. h.cost);
        ])
      Workloads.Tpch.query_names
  in
  print_table
    ~columns:
      [
        "query"; "rels"; "DPhyp[ms]"; "DPsize[ms]"; "DPsub[ms]";
        "optimal cost"; "GOO/opt";
      ]
    ~rows

(* X7: memory (Section 3.6): DP table entries are the same across the
   DP variants — the memoized state is the set of connected subgraphs *)
let xmem ~quick:_ () =
  header
    "X7: memory (sec 3.6) — DP table entries per algorithm (= connected      subgraphs)";
  let cases =
    [
      ("chain-10", Workloads.Shapes.chain 10);
      ("cycle-10", Workloads.Shapes.cycle 10);
      ("star-9", Workloads.Shapes.star 9);
      ("clique-8", Workloads.Shapes.clique 8);
      ("cycle8-s3", List.nth (Workloads.Splits.cycle_based 8) 3);
      ("star8-s0", List.hd (Workloads.Splits.star_based 8));
    ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let e algo = (Opt.run algo g).Opt.dp_entries in
        let csg = Hypergraph.Csg_enum.count_connected_subgraphs g in
        [
          name; string_of_int csg;
          string_of_int (e Opt.Dphyp);
          string_of_int (e Opt.Dpsize);
          string_of_int (e Opt.Dpsub);
        ])
      cases
  in
  print_table
    ~columns:[ "graph"; "#csg"; "DPhyp"; "DPsize"; "DPsub" ]
    ~rows

(* X8: 2008 TES conflict handling vs CD-C (2013 successor) — valid
   search-space sizes on the paper's non-inner workloads *)
let xcdc ~quick:_ () =
  header
    "X8: conflict detection — 2008 TES (literal / conservative) vs CD-C \
     rules: csg-cmp-pairs explored";
  let row name tree =
    let space_2008 conservative =
      let a = Conflicts.Analysis.analyze ~conservative tree in
      let g = Conflicts.Derive.hypergraph a in
      (Opt.run Opt.Dphyp g).Opt.counters.Core.Counters.ccp_emitted
    in
    let space_cdc =
      let a = Conflicts.Cdc.analyze tree in
      let g, filter = Conflicts.Cdc.derive a in
      (Opt.run ~filter Opt.Dphyp g).Opt.counters.Core.Counters.ccp_emitted
    in
    [
      name;
      string_of_int (space_2008 false);
      string_of_int (space_2008 true);
      string_of_int space_cdc;
    ]
  in
  let rows =
    List.map
      (fun k ->
        row
          (Printf.sprintf "star12-anti%d" k)
          (Workloads.Noninner.star_antijoins ~n_rel:12 ~k ()))
      [ 0; 3; 6; 11 ]
    @ List.map
        (fun k ->
          row
            (Printf.sprintf "cycle12-outer%d" k)
            (Workloads.Noninner.cycle_outerjoins ~n_rel:12 ~k ()))
        [ 0; 3; 6; 11 ]
    @ List.map
        (fun seed ->
          let ops =
            Relalg.Operator.
              [ join; left_outer; full_outer; left_semi; left_anti ]
          in
          row
            (Printf.sprintf "random-%d" seed)
            (Conflicts.Simplify.simplify
               (Workloads.Random_trees.random_tree ~seed ~n:9 ~ops)))
        [ 1; 2; 3; 4 ]
  in
  print_table
    ~columns:[ "workload"; "2008-literal"; "2008-conservative"; "CD-C" ]
    ~rows

(* X9: estimation quality — C_out estimated under a data-calibrated
   catalog vs C_out measured by executing the plan.  Rides the same
   Driver.Analyze path as `joinopt analyze`, so the experiment and the
   CLI report cannot drift apart. *)
let xqual ~quick:_ () =
  header
    "X9: estimation quality — estimated vs executed C_out (EXPLAIN ANALYZE \
     path, calibrated catalogs, random inner-join trees, 10-row relations)";
  let rows = ref [] in
  List.iter
    (fun seed ->
      let ops = Relalg.Operator.[ join ] in
      let tree = Workloads.Random_trees.random_tree ~seed ~n:6 ~ops in
      match
        Driver.Analyze.analyze_tree ~rows:10 ~domain:3 ~seed:(seed + 5)
          ~sample:10 tree
      with
      | Error _ -> ()
      | Ok rep ->
          let open Driver.Analyze in
          rows :=
            [
              string_of_int seed;
              Printf.sprintf "%.1f" rep.est_cout;
              Printf.sprintf "%.0f" rep.measured_cout;
              Printf.sprintf "%.2f"
                (rep.est_cout /. Float.max 1.0 rep.measured_cout);
              (match rep.max_q with
              | Some q -> Printf.sprintf "%.2f" q
              | None -> "-");
              Printf.sprintf "%.0f" rep.original_cout;
              Printf.sprintf "%.2fx"
                (rep.original_cout /. Float.max 1.0 rep.measured_cout);
            ]
            :: !rows)
    (List.init 10 Fun.id);
  print_table
    ~columns:
      [
        "seed"; "est C_out"; "actual C_out"; "est/actual"; "max q-error";
        "original-order C_out"; "speedup";
      ]
    ~rows:(List.rev !rows)

(* X10: valid plan space — ordered join-tree counts; hyperedges and
   their splits change not only enumeration cost but the number of
   admissible plans *)
let xspace ~quick:_ () =
  header
    "X10: valid plan space — ordered cross-product-free join trees";
  let rows =
    List.map
      (fun (name, g) ->
        [
          name;
          string_of_int (Hypergraph.Csg_enum.count_connected_subgraphs g);
          string_of_int (Hypergraph.Csg_enum.count_csg_cmp_pairs g);
          string_of_int (Hypergraph.Csg_enum.count_join_trees g);
        ])
      ([
         ("chain-8", Workloads.Shapes.chain 8);
         ("cycle-8", Workloads.Shapes.cycle 8);
         ("star-7", Workloads.Shapes.star 7);
         ("clique-8", Workloads.Shapes.clique 8);
       ]
      @ List.mapi
          (fun i g -> (Printf.sprintf "cycle10-s%d" i, g))
          (Workloads.Splits.cycle_based 10)
      @ List.mapi
          (fun i g -> (Printf.sprintf "star8-s%d" i, g))
          (Workloads.Splits.star_based 8))
  in
  print_table ~columns:[ "graph"; "#csg"; "#ccp"; "#join trees" ] ~rows

(* X11: the budgeted adaptive ladder (bench/adaptive_bench.ml) *)
let xadaptive ~quick () = Adaptive_bench.table ~quick ()

(* X12: the 100+ relation partitioned tier (bench/large_bench.ml) *)
let xlarge ~quick () = Large_bench.table ~quick ()

let all_experiments =
  [
    ("table1", table1);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("table2", table2);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig7", fig7);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("ccp", ccp_counts);
    ("xchain", xchain);
    ("xclique", xclique);
    ("xgen", xgen);
    ("xgoo", xgoo);
    ("xtopdown", xtopdown);
    ("xtpch", xtpch);
    ("xmem", xmem);
    ("xcdc", xcdc);
    ("xqual", xqual);
    ("xspace", xspace);
    ("xadaptive", xadaptive);
    ("xlarge", xlarge);
  ]
