(* joinopt — command-line driver for the DPhyp join-ordering library.

   Subcommands:
     optimize   parse a SQL query, run conflict analysis + an optimizer
     explain    optimize a SQL query and print the per-phase profile
     analyze    EXPLAIN ANALYZE: per-operator est/actual rows + Q-error
     run        optimize a SQL query and execute it on generated data
     shape      generate a benchmark graph and optimize it
     graph      optimize a serialized hypergraph (file, shape or text)
     tpch       optimize TPC-H-shaped join graphs
     stats      replay a Zipf-skewed stream through a plan cache with
                always-on telemetry; table / Prometheus / JSON
     ccp        csg-cmp-pair counts (DPhyp vs. brute force)
     dot        Graphviz export of a shape hypergraph
     inspect    search-space provenance: memo dump / JSON / lattice
     why        cost a forced join order against the recorded memo
     trace      csg-cmp-pair emission trace (the paper's Figure 3);
                execution span tracing is --trace-out, not this

   Every subcommand that optimizes goes through one of
   [Driver.Pipeline.optimize_sql] / [optimize_graph] (run and analyze
   through [Driver.Analyze], which calls [optimize_graph]). *)

module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared argument converters                                          *)

let algo_conv =
  let parse s =
    match Core.Optimizer.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Core.Optimizer.name a))

(* An integer flag with a lower bound; anything else is a usage
   error. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value %S, expected an integer >= %d" s
                lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = at_least 1

let algo_arg =
  let doc =
    Printf.sprintf
      "Algorithm: %s (dpconv is subset-convolution DP for the bottleneck \
       cost C_max — simple inner-join graphs up to 18 relations)."
      (String.concat ", " (List.map Core.Optimizer.name Core.Optimizer.all))
  in
  Arg.(value & opt algo_conv Core.Optimizer.Dphyp & info [ "a"; "algo" ] ~doc)

let budget_arg =
  let doc =
    "Work budget in considered pairs.  With --algo adaptive the optimizer \
     degrades from exact DPhyp through IDP-k to greedy GOO; any other \
     algorithm fails once the budget is spent."
  in
  Arg.(value & opt (some (at_least 0)) None & info [ "b"; "budget" ] ~doc)

let k_arg =
  let doc =
    Printf.sprintf
      "IDP block size (relations optimized exactly per round) for idp, and \
       for the stitching rounds of partition.  Absent: %d for idp, %d for \
       partition (the adaptive ladder's partitioned tier).  Any other \
       algorithm with -k is a usage error."
      Core.Idp.default_k Core.Partition.default_stitch_k
  in
  Arg.(value & opt (some int) None & info [ "k" ] ~doc)

(* -a and -k as one algorithm value.  -k sets the block size of idp
   and partition and is a usage error on any other algorithm. *)
let algo_term =
  let with_k (algo : Core.Optimizer.algorithm) k =
    match (algo, k) with
    | _, None -> `Ok algo
    | Idp _, Some k -> `Ok (Core.Optimizer.Idp { k })
    | Partition _, Some k -> `Ok (Partition { k })
    | _, Some _ ->
        `Error
          ( true,
            Printf.sprintf "-k requires --algo idp or partition (got %s)"
              (Core.Optimizer.name algo) )
  in
  Term.(ret (const with_k $ algo_arg $ k_arg))

let model_arg =
  let model_conv =
    let parse s =
      match Costing.Cost_model.by_name s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown cost model %S" s))
    in
    Arg.conv (parse, fun ppf (m : Costing.Cost_model.t) -> Format.pp_print_string ppf m.name)
  in
  let doc = "Cost model: cout or cmm." in
  Arg.(value & opt model_conv Costing.Cost_model.c_out & info [ "m"; "model" ] ~doc)

let conservative_arg =
  let doc = "Use the conservative conflict-detection gate (see DESIGN.md)." in
  Arg.(value & flag & info [ "conservative" ] ~doc)

let profile_arg =
  let doc =
    "Print a per-phase observability table after the run: wall-clock ms, \
     minor-heap words, and the enumeration counters each phase recorded."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the execution span trace of this run to $(docv) as Chrome \
     trace-event JSON (open in Perfetto or chrome://tracing).  Not to be \
     confused with the $(b,trace) subcommand, which prints DPhyp's \
     csg-cmp-pair emission order (the paper's Figure 3)."
  in
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE" ~doc)

(* One collector per observed run; [obs_ctx] decides whether the run
   is observed at all, [report_obs] renders the table / trace file. *)
let obs_ctx profile trace_out =
  if profile || trace_out <> None then Some (Obs.Span.create ()) else None

(* A failed command: its message on stderr, exit 1. *)
let fail msg =
  Format.eprintf "error: %s@." msg;
  1

let write_trace trace_out ctx =
  Option.iter
    (fun path ->
      Obs.Span.write_chrome path (Obs.Span.spans ctx);
      Format.printf "span trace written to %s (open in Perfetto)@." path)
    trace_out

let pp_tier_attempts ppf = function
  | [] -> ()
  | attempts ->
      Format.fprintf ppf "tier attempts: %a@." Core.Adaptive.pp_attempts
        attempts

(* What explain and analyze --profile print under the phase table:
   each fact of the run once, by the module that owns its record. *)
let pp_run_facts ?cache ppf (r : Driver.Pipeline.result) =
  Format.fprintf ppf "counters: %a@." Core.Counters.pp r.counters;
  pp_tier_attempts ppf r.attempts;
  Option.iter
    (fun t ->
      Format.fprintf ppf "winning tier: %s@." (Core.Adaptive.tier_name t))
    r.tier;
  Option.iter
    (fun c ->
      Format.fprintf ppf "plan cache: %a@." Cache.Plan_cache.pp_stats
        (Cache.Plan_cache.stats c))
    cache;
  Format.fprintf ppf "dp entries: %d@." r.dp_entries

(* The table is rendered before the trace file is written, so its
   [total:] line times the run, not the file. *)
let report_obs obs profile trace_out trailer =
  Option.iter
    (fun ctx ->
      let table = Format.asprintf "%a%t" Obs.Metrics.pp_table ctx trailer in
      write_trace trace_out ctx;
      if profile then Format.printf "@.%s" table)
    obs

let shape_arg =
  let doc =
    "Graph shape: chain, cycle, star, clique, grid, snowflake, cycle-hyper, \
     star-hyper."
  in
  Arg.(value & opt string "cycle" & info [ "s"; "shape" ] ~doc)

let n_arg =
  let doc = "Number of relations (star: satellites)." in
  Arg.(value & opt int 8 & info [ "n" ] ~doc)

let splits_arg =
  let doc = "Hyperedge split level for cycle-hyper / star-hyper." in
  Arg.(value & opt int 0 & info [ "splits" ] ~doc)

(* A generated graph; [?p] sets the catalog (default
   [Workloads.Shapes.default_params]). *)
let graph_of_shape ?p shape n splits =
  let split fam =
    match if splits < 0 then None else List.nth_opt fam splits with
    | Some g -> Ok g
    | None ->
        Error
          (Printf.sprintf "split level %d out of range (max %d)" splits
             (Workloads.Splits.num_splits fam))
  in
  (* every generator rejects a size it cannot build with
     [Invalid_argument] *)
  match
    match shape with
    | "chain" -> Ok (Workloads.Shapes.chain ?p n)
    | "cycle" -> Ok (Workloads.Shapes.cycle ?p n)
    | "star" -> Ok (Workloads.Shapes.star ?p n)
    | "clique" -> Ok (Workloads.Shapes.clique ?p n)
    | "grid" -> Ok (Workloads.Shapes.grid ?p ~rows:2 ~cols:((n + 1) / 2) ())
    | "snowflake" -> Ok (Workloads.Shapes.snowflake_n ?p n)
    | "cycle-hyper" -> split (Workloads.Splits.cycle_based ?p n)
    | "star-hyper" -> split (Workloads.Splits.star_based ?p n)
    | s -> Error (Printf.sprintf "unknown shape %S" s)
  with
  | r -> r
  | exception Invalid_argument msg -> Error msg

(* A pipeline call under the CLI's wall clock: the [time:] field. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  Result.map (fun r -> (r, Unix.gettimeofday () -. t0)) (f ())

(* Optimize through [optimize obs] under the CLI's wall clock (the
   [time:] field), observed when --profile or --trace-out asks for it,
   and print [before r], the plan and its run facts, the profile and
   [after r]. *)
let optimize_and_report ?(stable = false) ?(before = ignore) ?(after = ignore)
    ~profile ~trace_out optimize =
  let obs = obs_ctx profile trace_out in
  match timed (fun () -> optimize obs) with
  | Error msg -> fail msg
  | Ok ((r : Driver.Pipeline.result), elapsed) ->
      let p = r.plan in
      before r;
      Format.printf "plan: %a@.cost: %.4g   est. cardinality: %.4g@."
        Plans.Plan.pp p p.cost p.card;
      Format.printf "@[<v>%a@]" (Plans.Plan.pp_verbose r.graph) p;
      (match Plans.Plan_check.check r.graph p with
      | [] -> Format.printf "plan check: ok@."
      | issues ->
          Format.printf "plan check: %d issue(s)@." (List.length issues);
          List.iter
            (fun i ->
              Format.printf "  %s@." (Plans.Plan_check.issue_to_string i))
            issues);
      Option.iter
        (fun t -> Format.printf "tier: %s@." (Core.Adaptive.tier_name t))
        r.tier;
      Format.printf "counters: %a@." Core.Counters.pp r.counters;
      if stable then Format.printf "dp entries: %d@." r.dp_entries
      else
        Format.printf "dp entries: %d   time: %.3f ms@." r.dp_entries
          (elapsed *. 1000.0);
      report_obs obs profile trace_out (fun ppf ->
          pp_tier_attempts ppf r.attempts);
      after r;
      0

let conflict_mode conservative =
  if conservative then Driver.Pipeline.Tes_conservative
  else Driver.Pipeline.Tes_literal

(* ------------------------------------------------------------------ *)
(* optimize: SQL pipeline                                              *)

let sql_arg =
  let doc = "SQL query text (or @file to read from a file)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc)

let read_sql s =
  if String.length s > 0 && s.[0] = '@' then
    let path = String.sub s 1 (String.length s - 1) in
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  else Ok s

let optimize_cmd =
  let run sql algo model budget conservative verbose dot_plan profile
      trace_out =
    match read_sql sql with
    | Error msg -> fail msg
    | Ok sql ->
        (* -v prints the analysis behind the graph: the pipeline keeps
           its tree and graph, so it is re-run here only to print *)
        let before (r : Driver.Pipeline.result) =
          Format.printf "initial operator tree:@.%a@." Relalg.Optree.pp r.tree;
          if verbose then begin
            Format.printf "%a@." Conflicts.Analysis.pp
              (Conflicts.Analysis.analyze ~conservative r.tree);
            Format.printf "%a@." G.pp r.graph
          end
        and after (r : Driver.Pipeline.result) =
          Option.iter
            (fun path ->
              Plans.Plan_dot.write_file path r.graph r.plan;
              Format.printf "plan graph written to %s@." path)
            dot_plan
        in
        optimize_and_report ~before ~after ~profile ~trace_out (fun obs ->
            Driver.Pipeline.optimize_sql ?obs ~mode:(conflict_mode conservative)
              ~algo ~model ?budget sql)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print analysis and graph.")
  in
  let dot_plan =
    Arg.(value & opt (some string) None
         & info [ "dot-plan" ] ~doc:"Write the chosen plan as Graphviz to $(docv).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a SQL query")
    Term.(const run $ sql_arg $ algo_term $ model_arg
          $ budget_arg $ conservative_arg $ verbose $ dot_plan $ profile_arg
          $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* explain: full-pipeline profile of one SQL query                     *)

let explain_cmd =
  let run sql algo model budget conservative cache_cap trace_out =
    let mode = conflict_mode conservative in
    let go ?cache ctx =
      Result.bind (read_sql sql)
        (Driver.Pipeline.optimize_sql ~obs:ctx ?cache ~mode ~algo ~model
           ?budget)
    in
    let report ?cache ctx (r : Driver.Pipeline.result) =
      Format.printf "plan: %a@.cost: %.4g   est. cardinality: %.4g@.@."
        Plans.Plan.pp r.plan r.plan.cost r.plan.card;
      Format.printf "%a" Obs.Metrics.pp_table ctx;
      pp_run_facts ?cache Format.std_formatter r;
      write_trace trace_out ctx;
      0
    in
    match cache_cap with
    | None -> (
        let ctx = Obs.Span.create () in
        match go ctx with
        | Error msg -> fail msg
        | Ok r -> report ctx r)
    | Some capacity -> (
        (* first run fills the cache (miss), second is the profile the
           user sees — its [cache] span carries the hit and the table
           gains the plan-cache counter line *)
        let cache = Driver.Pipeline.make_cache ~capacity () in
        match go ~cache (Obs.Span.create ()) with
        | Error msg -> fail msg
        | Ok _ -> (
            let ctx = Obs.Span.create () in
            match go ~cache ctx with
            | Error msg -> fail msg
            | Ok r ->
                Format.printf
                  "second run through a plan cache of capacity %d:@." capacity;
                report ~cache ctx r))
  in
  let cache_cap =
    Arg.(value & opt (some positive) None
         & info [ "cache" ] ~docv:"N"
             ~doc:"Run the query twice through a plan cache of capacity \
                   $(docv) and print the second (warm) run's profile: the \
                   $(b,cache) phase span replaces the enumeration time and \
                   the profile gains the hit/miss/eviction counter line.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Optimize a SQL query and print the per-phase profile: one row per \
          pipeline phase (parse, simplify, conflict analysis, hypergraph \
          derivation, enumeration with its tier/round sub-spans) with \
          wall-clock ms, minor-heap allocation and enumeration counters.")
    Term.(const run $ sql_arg $ algo_term $ model_arg
          $ budget_arg $ conservative_arg $ cache_cap $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* stats: serve a replay with always-on telemetry and export it        *)

type replay = {
  variants : int;
  requests : int;
  alpha : float;
  capacity : int;
  seed : int;
}

let replay_args =
  let variants =
    Arg.(value & opt int 8
         & info [ "variants" ]
             ~doc:"Distinct query templates in the replay universe (same \
                   shape, different catalog seeds).")
  in
  let requests =
    Arg.(value & opt positive 200
         & info [ "requests" ] ~doc:"Length of the replay request stream.")
  in
  let alpha =
    Arg.(value & opt float 1.0
         & info [ "alpha" ]
             ~doc:"Zipf skew exponent of template popularity (0 = uniform).")
  in
  let capacity =
    Arg.(value & opt positive 64
         & info [ "capacity" ] ~doc:"Plan-cache capacity.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Stream and catalog seed.")
  in
  Term.(
    const (fun variants requests alpha capacity seed ->
        { variants; requests; alpha; capacity; seed })
    $ variants $ requests $ alpha $ capacity $ seed)

(* A Zipf stream over [variants] catalog seeds of one shape. *)
let replay_stream shape n rp =
  let gen i =
    let p = { Workloads.Shapes.default_params with seed = rp.seed + i } in
    match graph_of_shape ~p shape n 0 with Ok g -> g | Error m -> invalid_arg m
  in
  match
    Workloads.Replay.of_generator ~seed:rp.seed ~alpha:rp.alpha
      ~variants:rp.variants ~length:rp.requests gen
  with
  | w -> Ok w
  | exception Invalid_argument msg -> Error msg

let serve_jobs_arg =
  let doc =
    "Serving domains: the replayed requests run concurrently on $(docv) \
     domains sharing one plan cache, each request enumerated on the \
     domain that serves it."
  in
  Arg.(value & opt positive 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Serve every request of the stream through [optimize] on [jobs]
   domains; the message of the first failed request, if any. *)
let serve_replay ~jobs w optimize =
  Driver.Pipeline.run_batch ~jobs
    (fun i -> Result.map ignore (optimize (Workloads.Replay.graph w i)))
    (List.init (Array.length w.Workloads.Replay.requests) Fun.id)
  |> List.find_map (function Ok () -> None | Error m -> Some m)

let stats_cmd =
  let run shape n rp jobs algo budget prometheus json out top slow_ms =
    match replay_stream shape n rp with
    | Error msg -> fail msg
    | Ok w -> (
        let tel = Obs.Export.create ~slow_s:(slow_ms /. 1e3) () in
        let cache = Driver.Pipeline.make_cache ~capacity:rp.capacity () in
        match
          serve_replay ~jobs w
            (Driver.Pipeline.optimize_graph ~tel ~cache ~algo ?budget)
        with
        | Some m -> fail ("a replayed request failed: " ^ m)
        | None -> (
            Driver.Pipeline.export_cache_stats tel cache;
            let doc =
              if prometheus then Some (Obs.Export.prometheus tel)
              else if json then Some (Obs.Export.to_json ~top tel)
              else None
            in
            match doc, out with
            | Some doc, None ->
                print_string doc;
                0
            | Some doc, Some path ->
                (* atomic: a scraper polling the file never sees a
                   truncated document *)
                Obs.Atomic_file.write path doc;
                Format.printf "telemetry written to %s@." path;
                0
            | None, _ ->
                Format.printf
                  "replayed %d requests over %d %s-%d variants (zipf %.2f, \
                   algo %s) on %d domain%s@.@."
                  rp.requests rp.variants shape n rp.alpha
                  (Core.Optimizer.name algo)
                  jobs
                  (if jobs = 1 then "" else "s");
                Obs.Export.print_stats ~top Format.std_formatter tel;
                0))
  in
  (* Default adaptive, so the per-tier latency series are populated. *)
  let algo =
    let doc =
      "Algorithm for the replayed requests (default adaptive, so the \
       per-tier latency histograms are populated)."
    in
    Arg.(value & opt algo_conv Core.Optimizer.Adaptive
         & info [ "a"; "algo" ] ~doc)
  in
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ]
             ~doc:"Emit Prometheus text exposition format instead of the \
                   human table (what a scrape endpoint would serve).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the obs_telemetry/v1 JSON snapshot instead of the \
                   human table.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the --prometheus / --json document to $(docv) \
                   instead of stdout.")
  in
  let top =
    Arg.(value & opt (at_least 0) 5
         & info [ "top" ] ~doc:"Slowest requests to list from the flight \
                                recorder.")
  in
  let slow_ms =
    Arg.(value & opt float 100.0
         & info [ "slow-ms" ]
             ~doc:"Flight-recorder slow threshold in milliseconds: requests \
                   at least this slow keep their full span tree.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Serve a Zipf-skewed replay stream through the optimizer with \
          always-on serving telemetry — latency histograms per algorithm, \
          phase and adaptive tier, plan-cache counters and per-shard \
          occupancy, and a flight recorder of the slowest requests — then \
          print the summary table, or export it with $(b,--prometheus) / \
          $(b,--json).")
    Term.(const run $ shape_arg $ n_arg $ replay_args $ serve_jobs_arg $ algo
          $ budget_arg $ prometheus $ json $ out $ top $ slow_ms)

(* ------------------------------------------------------------------ *)
(* shape: benchmark graphs                                             *)

let shape_cmd =
  let run shape n splits algo model budget stable profile trace_out =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        Format.printf "%a@." G.pp g;
        optimize_and_report ~stable ~profile ~trace_out (fun obs ->
            Driver.Pipeline.optimize_graph ?obs ~algo ~model ?budget g)
  in
  let stable =
    Arg.(value & flag
         & info [ "stable" ]
             ~doc:"Suppress the wall-clock column so output is byte-stable \
                   across runs (golden tests).")
  in
  Cmd.v
    (Cmd.info "shape" ~doc:"Generate a benchmark graph and optimize it")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ algo_term
          $ model_arg $ budget_arg $ stable $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* graph: save / load / optimize serialized hypergraphs                *)

let graph_cmd =
  let run input algo model budget save profile trace_out =
    let g_result =
      if String.length input > 0 && input.[0] = '@' then
        Hypergraph.Serialize.read_file
          (String.sub input 1 (String.length input - 1))
      else
        match graph_of_shape input 8 0 with
        | Ok g -> Ok g
        | Error _ -> Hypergraph.Serialize.of_string input
    in
    match g_result with
    | Error msg -> fail msg
    | Ok g ->
        (match save with
        | Some path ->
            Hypergraph.Serialize.write_file path g;
            Format.printf "wrote %s@." path
        | None -> ());
        Format.printf "%a@." G.pp g;
        optimize_and_report ~profile ~trace_out (fun obs ->
            Driver.Pipeline.optimize_graph ?obs ~algo ~model ?budget g)
  in
  let input =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GRAPH"
             ~doc:"@file with a serialized hypergraph, a shape name, or \
                   inline serialized text.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Also write the graph to $(docv).")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Optimize a serialized hypergraph (see \
                            Hypergraph.Serialize for the format)")
    Term.(const run $ input $ algo_term
          $ model_arg $ budget_arg $ save $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* ccp: counts                                                         *)

let ccp_cmd =
  let run shape n splits brute =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        let trace = Core.Dphyp.enumerate_ccps g in
        Format.printf "DPhyp emits %d csg-cmp-pairs@." (List.length trace);
        if brute then begin
          let csg = Hypergraph.Csg_enum.count_connected_subgraphs g in
          let ccp = Hypergraph.Csg_enum.count_csg_cmp_pairs g in
          let trees = Hypergraph.Csg_enum.count_join_trees g in
          Format.printf
            "brute force: %d connected subgraphs, %d csg-cmp-pairs, %d \
             ordered join trees@."
            csg ccp trees
        end;
        0
  in
  let brute =
    Arg.(value & flag
         & info [ "brute" ] ~doc:"Also run the exponential brute-force count.")
  in
  Cmd.v
    (Cmd.info "ccp" ~doc:"Count csg-cmp-pairs")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ brute)

(* ------------------------------------------------------------------ *)
(* dot: Graphviz export                                                *)

let dot_cmd =
  let run shape n splits out =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        (match out with
        | Some path ->
            Hypergraph.Dot.write_file path g;
            Format.printf "wrote %s@." path
        | None -> print_string (Hypergraph.Dot.to_dot g));
        0
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output file (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a hypergraph in Graphviz format")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ out)

(* ------------------------------------------------------------------ *)
(* trace: emission order (Figure 3)                                    *)

let trace_cmd =
  let run shape n splits =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g ->
        List.iteri
          (fun i (s1, s2) ->
            Format.printf "%3d: (%a, %a)@." (i + 1) Ns.pp s1 Ns.pp s2)
          (Core.Dphyp.enumerate_ccps g);
        0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print DPhyp's csg-cmp-pair emission trace — the enumeration-order \
          listing of the paper's Figure 3.  This is about $(i,which pairs) \
          the algorithm emits, not about execution timing; for a wall-clock \
          span trace of a run use the $(b,--trace-out) flag of \
          $(b,optimize) / $(b,explain) / $(b,shape) / $(b,graph) instead.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg)

(* ------------------------------------------------------------------ *)
(* run: SQL -> optimize -> execute on a generated instance             *)

(* The generated instance of run and analyze. *)
let rows_arg =
  Arg.(value & opt (at_least 0) 8
       & info [ "rows" ] ~doc:"Rows per generated base table.")

let data_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Data generator seed.")

let run_cmd =
  let run sql algo model budget conservative rows seed =
    match
      Result.bind (read_sql sql)
        (Driver.Analyze.execute_sql ~algo ~model ?budget ~conservative ~rows
           ~seed)
    with
    | Error msg -> fail msg
    | Ok { optimized = { plan; _ }; tuples; mismatch } ->
        Format.printf "plan: %a  (est. cost %.4g, est. rows %.4g)@."
          Plans.Plan.pp plan plan.Plans.Plan.cost plan.Plans.Plan.card;
        (match mismatch with
        | None ->
            Format.printf
              "verified: plan result equals original-order result (%d \
               tuples)@."
              (List.length tuples)
        | Some m -> Format.printf "MISMATCH: %s@." m);
        Format.printf "@.first tuples:@.";
        List.iteri
          (fun i env ->
            if i < 10 then Format.printf "  %a@." Executor.Env.pp env)
          tuples;
        0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize a SQL query and execute it on generated data")
    Term.(const run $ sql_arg $ algo_term $ model_arg
          $ budget_arg $ conservative_arg $ rows_arg $ data_seed_arg)

(* ------------------------------------------------------------------ *)
(* analyze: EXPLAIN ANALYZE — per-operator est/actual/Q-error          *)

let analyze_cmd =
  let run sql algo model budget conservative rows seed sample json_out stable
      profile trace_out =
    let obs = obs_ctx profile trace_out in
    match
      Result.bind (read_sql sql)
        (Driver.Analyze.analyze_sql ?obs ~algo ~model ?budget ~conservative
           ~rows ~seed ?sample)
    with
    | Error msg -> fail msg
    | Ok rep ->
        Format.printf "%a" (Driver.Analyze.pp ~stable) rep;
        (match json_out with
        | Some path ->
            Obs.Atomic_file.write path (Driver.Analyze.to_json ~query:sql rep);
            Format.printf "analyze report written to %s@." path
        | None -> ());
        report_obs obs profile trace_out (fun ppf ->
            pp_run_facts ppf rep.optimized);
        0
  in
  let sample =
    Arg.(value & opt (some positive) None
         & info [ "sample" ]
             ~doc:"Rows sampled per side when calibrating selectivities.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "analyze-json" ] ~docv:"FILE"
             ~doc:"Also write the report to $(docv) as an obs_analyze/v1 \
                   JSON document.")
  in
  let stable =
    Arg.(value & flag
         & info [ "stable" ]
             ~doc:"Suppress wall-clock columns so output is byte-stable \
                   across runs (golden tests).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "EXPLAIN ANALYZE: optimize a SQL query, execute the chosen plan on \
          a deterministic generated instance, and print one row per \
          operator with estimated rows, actual rows, Q-error, inclusive \
          wall-clock and predicate evaluations — plus aggregate Q-error, \
          the measured C_out of the chosen vs. the exact plan, and a \
          result-correctness check against the original operator order.")
    Term.(const run $ sql_arg $ algo_term $ model_arg
          $ budget_arg $ conservative_arg $ rows_arg $ data_seed_arg $ sample
          $ json_out $ stable $ profile_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* inspect: search-space provenance — memo dump / JSON / lattice       *)

let inspect_cmd =
  let run shape n splits algo model budget json dot out sample max_subsets
      max_champions =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g -> (
        let prov =
          Inspect.Provenance.create ~sample ~max_subsets ~max_champions ()
        in
        match
          Inspect.Provenance.with_recording prov (fun () ->
              Driver.Pipeline.optimize_graph ~algo ~model ?budget g)
        with
        | Error msg -> fail msg
        | Ok r ->
            let names i = (G.relation g i).G.name in
            let doc =
              if json then
                Some
                  (Inspect.Provenance.to_json ~names
                     ~name:(Printf.sprintf "%s-%d" shape n)
                     prov)
              else if dot then Some (Inspect.Provenance.to_dot ~names prov)
              else None
            in
            (match doc, out with
            | Some doc, None -> print_string doc
            | Some doc, Some path ->
                Obs.Atomic_file.write path doc;
                Format.printf "inspect report written to %s@." path
            | None, _ ->
                let plan = r.plan in
                Format.printf "plan: %a@.cost: %.4g@." Plans.Plan.pp plan
                  plan.Plans.Plan.cost;
                (match r.tier with
                | Some t ->
                    Format.printf "tier: %s@." (Core.Adaptive.tier_name t)
                | None -> ());
                Inspect.Provenance.pp_table ~names Format.std_formatter prov;
                (* when a fallback tier won, show what it cost *)
                match
                  Option.bind r.tier (fun t ->
                      Core.Adaptive.loss_report ~model g t plan)
                with
                | Some (Ok rep) -> Format.printf "@.loss vs exact:@.%s" rep
                | Some (Error why) ->
                    Format.printf "@.exact baseline skipped: %s@." why
                | None -> ());
            0)
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the obs_inspect/v1 JSON document instead of the \
                   human memo table.")
  in
  let dot =
    Arg.(value & flag
         & info [ "dot" ]
             ~doc:"Emit the explored subset lattice as a Graphviz digraph \
                   (one node per recorded subset, edges from the halves of \
                   each winning decomposition).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the --json / --dot document to $(docv) instead of \
                   stdout (atomic temp-file + rename).")
  in
  let sample =
    Arg.(value & opt positive 1
         & info [ "sample" ]
             ~doc:"Keep champion history only for subsets whose hash is 0 \
                   mod $(docv) (1 = record everything; aggregate counts \
                   always cover every update).")
  in
  let max_subsets =
    Arg.(value & opt positive 65536
         & info [ "max-subsets" ]
             ~doc:"Bound on subsets with recorded history.")
  in
  let max_champions =
    Arg.(value & opt positive 8
         & info [ "max-champions" ]
             ~doc:"Champion-history entries kept per subset (oldest \
                   dropped).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Optimize a benchmark graph with search-space provenance recording \
          and dump the memo: per subset the winning csg-cmp-pair, its cost, \
          what it displaced and at which arrival rank, plus aggregate \
          pruning statistics — as a human table, obs_inspect/v1 JSON \
          ($(b,--json)) or a Graphviz subset lattice ($(b,--dot)).  With a \
          fallback tier (e.g. $(b,--algo) adaptive $(b,--budget) N) also \
          prints the aligned plan diff against exact DP.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg
          $ algo_term $ model_arg $ budget_arg $ json $ dot
          $ out $ sample $ max_subsets $ max_champions)

(* ------------------------------------------------------------------ *)
(* why: cost a forced join order against the recorded memo             *)

let why_cmd =
  let run shape n splits model force_order =
    match graph_of_shape shape n splits with
    | Error msg -> fail msg
    | Ok g -> (
        match Inspect.Why.analyze ~model g force_order with
        | Error msg -> fail msg
        | Ok rep ->
            Format.printf "%a" Inspect.Why.pp rep;
            0)
  in
  let force_order =
    Arg.(required & opt (some string) None
         & info [ "force-order" ] ~docv:"ORDER"
             ~doc:"Join order to cost: a parenthesized binary tree over \
                   relation names, e.g. \"((R0 R1) (R2 R3))\"; a flat list \
                   \"R0 R1 R2\" is read left-deep.  Every relation must \
                   appear exactly once.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain why the optimizer did not pick a given join order: build \
          the forced order under the optimizer's own operator and costing \
          rules, compare every subtree against the exhaustive DPhyp memo, \
          name the first subset where the forced order diverges from the \
          optimum, attribute the cost gap join by join, and print the \
          aligned plan diff.")
    Term.(const run $ shape_arg $ n_arg $ splits_arg $ model_arg $ force_order)

(* ------------------------------------------------------------------ *)
(* tpch: canned realistic join graphs                                  *)

let tpch_cmd =
  let run query algo model budget sf =
    let graph name = Workloads.Tpch.query ~sf name in
    let optimize ?obs g =
      Driver.Pipeline.optimize_graph ?obs ~algo ~model ?budget g
    in
    (* every graph is built before the first is optimized, so a bad
       name or scale factor fails before any output *)
    match
      if query = "all" then
        `All (List.map (fun n -> (n, graph n)) Workloads.Tpch.query_names)
      else `One (graph query)
    with
    | exception Invalid_argument msg -> fail msg
    | `One g ->
        Format.printf "%a@." G.pp g;
        optimize_and_report ~profile:false ~trace_out:None (fun obs ->
            optimize ?obs g)
    | `All graphs ->
        List.iter
          (fun (name, g) ->
            match timed (fun () -> optimize g) with
            | Error msg -> Format.printf "%-4s: %s@." name msg
            | Ok ((r : Driver.Pipeline.result), elapsed) ->
                Format.printf
                  "%-4s (%d relations): time=%.3f ms  cost=%.4g  %a@." name
                  (G.num_nodes g) (elapsed *. 1000.0) r.plan.cost
                  Plans.Plan.pp r.plan)
          graphs;
        0
  in
  let query =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"QUERY" ~doc:"q2, q3, q5, q7, q8, q9, q10 or all.")
  in
  let sf =
    Arg.(value & opt float 1.0 & info [ "sf" ] ~doc:"TPC-H scale factor.")
  in
  Cmd.v
    (Cmd.info "tpch" ~doc:"Optimize TPC-H-shaped join graphs")
    Term.(const run $ query $ algo_term $ model_arg
          $ budget_arg $ sf)

let main =
  let info =
    Cmd.info "joinopt" ~version:"1.0.0"
      ~doc:"DPhyp join ordering over hypergraphs (SIGMOD 2008 reproduction)"
  in
  Cmd.group info
    [
      optimize_cmd; explain_cmd; analyze_cmd; run_cmd; shape_cmd; graph_cmd;
      stats_cmd; ccp_cmd; dot_cmd; trace_cmd; inspect_cmd;
      why_cmd; tpch_cmd;
    ]

let () = exit (Cmd.eval' main)
