module Ot = Relalg.Optree

type conflict_mode =
  | Tes_literal
  | Tes_conservative
  | Tes_generate_and_test
  | Cdc

type result = {
  tree : Ot.t;
  graph : Hypergraph.Graph.t;
  plan : Plans.Plan.t;
  counters : Core.Counters.t;
  tier : Core.Adaptive.tier option;
  profile : Obs.Metrics.profile option;
}

type plan_cache = Core.Optimizer.result Cache.Plan_cache.t

let make_cache ?shards ~capacity () = Cache.Plan_cache.create ?shards ~capacity ()

let cache_metrics c : Obs.Metrics.cache_stats =
  let s = Cache.Plan_cache.stats c in
  {
    Obs.Metrics.cache_hits = s.Cache.Plan_cache.hits;
    cache_misses = s.misses;
    cache_coalesced = s.coalesced;
    cache_evictions = s.evictions;
    cache_entries = s.entries;
    cache_capacity = s.capacity;
  }

let budget_error =
  "work budget exhausted before a plan was found (use the adaptive algorithm \
   for graceful degradation)"

(* Top-3 costliest memo subsets of a recorded run, with relation
   names resolved — the pre-rendered shape the profile and the flight
   recorder carry. *)
let prov_summary graph prov =
  let names i = (Hypergraph.Graph.relation graph i).Hypergraph.Graph.name in
  Inspect.Provenance.top_costly_labeled ~names prov 3

(* Intra-query parallelism: [jobs > 1] runs the enumeration itself on
   a domain pool — only DPhyp has a parallel decomposition (see
   Parallel.Par_dphyp); every other algorithm refuses rather than
   silently running sequentially. *)
let run_algo ?obs ?tel ?model ?filter ?budget ?k ?dpconv_objective ?inspect
    ~jobs algo graph =
  let go () =
    if jobs <= 1 then
      Core.Optimizer.run ?obs ?tel ?model ?filter ?budget ?k ?dpconv_objective
        algo graph
    else if algo <> Core.Optimizer.Dphyp then
      invalid_arg
        (Printf.sprintf "jobs > 1 requires the dphyp algorithm (got %s)"
           (Core.Optimizer.name algo))
    else
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Par_dphyp.run ?obs ?tel ?model ?filter ?budget ~pool graph)
  in
  match inspect with
  | None -> go ()
  | Some prov ->
      (* The recorder attaches through ambient (domain-wide) state;
         a parallel enumeration would race on it. *)
      if jobs > 1 then
        invalid_arg "provenance recording (--inspect) requires jobs = 1";
      Inspect.Provenance.with_recording prov go

(* The exact cache key: every input that can change the returned plan
   bytes.  The serialized graph carries node order, cardinalities,
   selectivities, operators, free sets and edge order (edge ids are
   file order); algorithm, cost model, budget and IDP block size are
   prepended.  [jobs] is deliberately absent — parallel enumeration
   is byte-identical to sequential for every jobs count, so one entry
   serves all of them (the differential test sweeps jobs to prove
   it). *)
let exact_key ?model ?budget ?k ?(dpconv_objective = Core.Dpconv.Cmax) algo
    graph =
  Printf.sprintf "algo=%s model=%s budget=%s k=%d\n%s"
    (* the objective changes dpconv's plan, so it is part of the
       algorithm component; other algorithms ignore it and keep their
       existing keys *)
    (match algo with
    | Core.Optimizer.Dpconv ->
        Core.Optimizer.name algo ^ ":"
        ^ Core.Dpconv.objective_name dpconv_objective
    | _ -> Core.Optimizer.name algo)
    (match model with
    | Some (m : Costing.Cost_model.t) -> m.name
    | None -> Costing.Cost_model.c_out.name)
    (match budget with Some b -> string_of_int b | None -> "unlimited")
    (Option.value k ~default:Core.Idp.default_k)
    (Hypergraph.Serialize.to_string graph)

(* Memoized enumeration.  A conflict-mode validity filter is a
   closure the key cannot capture, so those runs bypass the cache
   rather than risk serving a plan computed under a different filter.
   On a miss the optimizer runs inside the requester's [cache] span
   (so explain shows enumerate nested under cache); a hit or a
   coalesced wait returns the memoized result untouched — the cached
   plan is the exact value a fresh run would build, because the key
   is exact. *)
(* Returns the optimizer result plus the plan-cache outcome name, so
   the telemetry layer can label series and recorder entries without
   re-deriving it from span attributes.  [fp] is the request's lazy
   graph fingerprint, shared with the telemetry recorder so a cached
   request with telemetry hashes the graph once. *)
let run_cached ?obs ?tel ?cache ?model ?filter ?budget ?k ?dpconv_objective
    ?inspect ~fp ~jobs algo graph =
  match cache with
  | None ->
      (run_algo ?obs ?tel ?model ?filter ?budget ?k ?dpconv_objective ?inspect
         ~jobs algo graph,
       None)
  | Some _ when filter <> None || inspect <> None ->
      (* a provenance-recorded request must actually enumerate — a
         cache hit has no decision trail to record *)
      (run_algo ?obs ?tel ?model ?filter ?budget ?k ?dpconv_objective ?inspect
         ~jobs algo graph,
       None)
  | Some c ->
      Obs.Span.with_opt obs "cache" (fun sp ->
          let key =
            Cache.Plan_cache.key ~fingerprint:(Lazy.force fp)
              ~exact:(exact_key ?model ?budget ?k ?dpconv_objective algo graph)
          in
          let r, outcome =
            Cache.Plan_cache.find_or_compute c key (fun () ->
                run_algo ?obs ?tel ?model ?budget ?k ?dpconv_objective ~jobs
                  algo graph)
          in
          let name = Cache.Plan_cache.outcome_name outcome in
          Obs.Span.set_opt sp "cache" (Obs.Span.Str name);
          (r, Some name))

(* ---------- serving telemetry ---------- *)

let latency_help = "End-to-end optimize latency in seconds"

let phase_help = "Per-pipeline-phase latency in seconds"

(* Depth-0 span names, with the algorithm-specific enumerate span
   collapsed to one "enumerate" phase so the series stays
   low-cardinality. *)
let phase_name (s : Obs.Sink.span) =
  if String.length s.Obs.Sink.name >= 10
     && String.sub s.Obs.Sink.name 0 10 = "enumerate:"
  then "enumerate"
  else s.Obs.Sink.name

(* One always-on record per served request: the overall latency
   histogram (labeled by algorithm, plan-cache outcome and
   ok/error), the per-phase histograms harvested from the request's
   depth-0 spans, and a flight-recorder entry (which keeps the whole
   span tree when the request was slow). *)
let tel_record tel ~obs ~t0 ~(gc0 : Gc.stat) ~algo ~graph ~fp ?inspect
    outcome =
  let wall_s = Obs.Span.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let algo_name = Core.Optimizer.name algo in
  let ok, tier, pairs, cache_outcome =
    match outcome with
    | Ok ((r : Core.Optimizer.result), outc) ->
        ( r.Core.Optimizer.plan <> None,
          Option.map Core.Adaptive.tier_name r.Core.Optimizer.tier,
          r.Core.Optimizer.counters.Core.Counters.pairs_considered,
          outc )
    | Error () -> (false, None, 0, None)
  in
  Obs.Export.observe_s tel ~help:latency_help
    ~labels:
      [
        ("algo", algo_name);
        ("cache", Option.value cache_outcome ~default:"none");
        ("result", (if ok then "ok" else "error"));
      ]
    "joinopt_optimize_latency_seconds" wall_s;
  let spans = match obs with Some ctx -> Obs.Span.spans ctx | None -> [] in
  List.iter
    (fun (s : Obs.Sink.span) ->
      if s.Obs.Sink.depth = 0 then
        Obs.Export.observe_s tel ~help:phase_help
          ~labels:[ ("phase", phase_name s) ]
          "joinopt_phase_latency_seconds" s.Obs.Sink.dur_s)
    spans;
  let provenance =
    match inspect with
    | None -> []
    | Some prov -> prov_summary graph prov
  in
  Obs.Recorder.record (Obs.Export.recorder tel)
    ~fingerprint:(Cache.Fingerprint.to_hex (Lazy.force fp))
    ~relations:(Hypergraph.Graph.num_nodes graph)
    ~algo:algo_name ?tier ?cache:cache_outcome ~pairs ~wall_s
    ~minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
    ~major_words:(gc1.Gc.major_words -. gc0.Gc.major_words)
    ~provenance ~spans ()

let export_cache_stats tel cache =
  let s = Cache.Plan_cache.stats cache in
  let req outcome v =
    Obs.Export.set_counter tel
      ~help:"Plan-cache requests by outcome"
      ~labels:[ ("outcome", outcome) ]
      "joinopt_plan_cache_requests_total" v
  in
  req "hit" s.Cache.Plan_cache.hits;
  req "miss" s.Cache.Plan_cache.misses;
  req "coalesced" s.Cache.Plan_cache.coalesced;
  Obs.Export.set_counter tel ~help:"Plan-cache evictions"
    "joinopt_plan_cache_evictions_total" s.Cache.Plan_cache.evictions;
  Obs.Export.set_gauge tel ~help:"Plan-cache total capacity"
    "joinopt_plan_cache_capacity"
    (float_of_int s.Cache.Plan_cache.capacity);
  Array.iteri
    (fun i n ->
      Obs.Export.set_gauge tel
        ~help:"Plan-cache resident entries per shard"
        ~labels:[ ("shard", string_of_int i) ]
        "joinopt_plan_cache_entries" (float_of_int n))
    (Cache.Plan_cache.shard_entries cache)

let build_profile ?cache ?inspect ~graph obs r =
  Option.map
    (fun ctx ->
      let p = Core.Optimizer.profile ctx r in
      let p =
        match cache with
        | Some c -> Obs.Metrics.with_cache p (cache_metrics c)
        | None -> p
      in
      match inspect with
      | Some prov -> Obs.Metrics.with_provenance p (prov_summary graph prov)
      | None -> p)
    obs

(* Telemetry needs spans (per-phase histograms, slow-request span
   promotion) even when the caller asked for no profile: requests
   with [?tel] but no [?obs] get a private collector.  The result's
   [profile] is still keyed off the caller's own ctx. *)
let private_ctx obs tel =
  match (obs, tel) with
  | None, Some _ -> Some (Obs.Span.create ())
  | _ -> obs

let optimize_tree ?obs ?tel ?cache ?inspect ?(mode = Tes_literal)
    ?(algo = Core.Optimizer.Dphyp) ?model ?budget ?k ?dpconv_objective
    ?(jobs = 1) ?cards ?sels tree =
  let obs_user = obs in
  let obs = private_ctx obs tel in
  let t0 = Obs.Span.now () in
  let gc0 = Gc.quick_stat () in
  match Ot.validate tree with
  | Error e -> Error ("invalid operator tree: " ^ Ot.error_to_string e)
  | Ok () -> (
      let tree =
        Obs.Span.with_opt obs "simplify" (fun _ ->
            Conflicts.Simplify.simplify tree)
      in
      let analyzed f = Obs.Span.with_opt obs "conflict-analysis" (fun _ -> f ())
      and derived f =
        Obs.Span.with_opt obs "hypergraph-derive" (fun _ -> f ())
      in
      let graph, filter =
        match mode with
        | Tes_literal ->
            let a = analyzed (fun () -> Conflicts.Analysis.analyze tree) in
            (derived (fun () -> Conflicts.Derive.hypergraph ?cards ?sels a), None)
        | Tes_conservative ->
            let a =
              analyzed (fun () ->
                  Conflicts.Analysis.analyze ~conservative:true tree)
            in
            (derived (fun () -> Conflicts.Derive.hypergraph ?cards ?sels a), None)
        | Tes_generate_and_test ->
            let a =
              analyzed (fun () ->
                  Conflicts.Analysis.analyze ~conservative:true tree)
            in
            let g, f =
              derived (fun () -> Conflicts.Derive.ses_graph ?cards ?sels a)
            in
            (g, Some f)
        | Cdc ->
            let a = analyzed (fun () -> Conflicts.Cdc.analyze tree) in
            let g, f = derived (fun () -> Conflicts.Cdc.derive ?cards ?sels a) in
            (g, Some f)
      in
      match filter, Core.Optimizer.supports_filter algo with
      | Some _, false ->
          Error
            (Printf.sprintf
               "conflict mode needs a validity filter, which %s does not \
                support"
               (Core.Optimizer.name algo))
      | _ -> (
          let fp = lazy (Cache.Fingerprint.of_graph graph) in
          let finish outcome =
            match tel with
            | Some tel ->
                tel_record tel ~obs ~t0 ~gc0 ~algo ~graph ~fp ?inspect outcome
            | None -> ()
          in
          match
            run_cached ?obs ?tel ?cache ?model ?filter ?budget ?k
              ?dpconv_objective ?inspect ~fp ~jobs algo graph
          with
          | ({ plan = Some plan; counters; tier; _ } as r), outc ->
              finish (Ok (r, outc));
              Ok
                {
                  tree;
                  graph;
                  plan;
                  counters;
                  tier;
                  profile = build_profile ?cache ?inspect ~graph obs_user r;
                }
          | ({ plan = None; _ } as r), outc ->
              finish (Ok (r, outc));
              Error "no valid plan found"
          | exception Invalid_argument m ->
              finish (Error ());
              Error m
          | exception Core.Counters.Budget_exhausted ->
              finish (Error ());
              Error budget_error))

let optimize_sql ?obs ?tel ?cache ?inspect ?mode ?algo ?model ?budget ?k
    ?dpconv_objective ?jobs ?cards ?sels sql =
  match Obs.Span.with_opt obs "parse" (fun _ -> Sqlfront.Binder.parse_and_bind sql) with
  | Error m -> Error m
  | Ok bound ->
      optimize_tree ?obs ?tel ?cache ?inspect ?mode ?algo ?model ?budget ?k
        ?dpconv_objective ?jobs ?cards ?sels bound.tree

let optimize_graph ?obs ?tel ?cache ?inspect ?(algo = Core.Optimizer.Dphyp)
    ?model ?budget ?k ?dpconv_objective ?(jobs = 1) graph =
  let obs_user = obs in
  let obs = private_ctx obs tel in
  let t0 = Obs.Span.now () in
  let gc0 = Gc.quick_stat () in
  let fp = lazy (Cache.Fingerprint.of_graph graph) in
  let finish outcome =
    match tel with
    | Some tel ->
        tel_record tel ~obs ~t0 ~gc0 ~algo ~graph ~fp ?inspect outcome
    | None -> ()
  in
  match
    run_cached ?obs ?tel ?cache ?model ?budget ?k ?dpconv_objective ?inspect
      ~fp ~jobs algo graph
  with
  | ({ plan = Some plan; counters; tier; _ } as r), outc ->
      let tree =
        Obs.Span.with_opt obs "plan-emit" (fun _ ->
            Plans.Plan.to_optree graph plan)
      in
      finish (Ok (r, outc));
      Ok
        {
          tree;
          graph;
          plan;
          counters;
          tier;
          profile = build_profile ?cache ?inspect ~graph obs_user r;
        }
  | ({ plan = None; _ } as r), outc ->
      finish (Ok (r, outc));
      Error "no valid plan found"
  | exception Invalid_argument m ->
      finish (Error ());
      Error m
  | exception Core.Counters.Budget_exhausted ->
      finish (Error ());
      Error budget_error

(* Inter-query parallelism: one pool task per query, each running the
   full sequential pipeline on whichever domain picks it up.  Every
   query derives its own graph and counters, so tasks share nothing
   but the optional sink — and Obs.Sink.emit is serialized by a
   process-wide mutex, so all per-query span contexts may stream into
   one [?sink]. *)
let run_batch ?sink ?pool ?tel ?cache ?mode ?algo ?model ?budget ?k ~jobs
    trees =
  let trees = Array.of_list trees in
  let out = Array.make (Array.length trees) (Error "query was not run") in
  let go pool =
    Parallel.Pool.run_fun pool (Array.length trees) (fun i _wid ->
        let obs = Option.map (fun sink -> Obs.Span.create ~sink ()) sink in
        out.(i) <-
          optimize_tree ?obs ?tel ?cache ?mode ?algo ?model ?budget ?k
            trees.(i))
  in
  (match pool with
  | Some pool -> go pool
  | None -> Parallel.Pool.with_pool ~jobs go);
  Array.to_list out

let verify_on_data ?(rows = 8) ?(seed = 42) r =
  let inst = Executor.Instance.for_tree ~rows ~seed r.tree in
  let expected = Executor.Exec.eval inst r.tree in
  let got = Executor.Exec.eval inst (Plans.Plan.to_optree r.graph r.plan) in
  let universe = Executor.Exec.output_tables r.tree in
  match Executor.Bag.diff_summary ~universe expected got with
  | None -> Ok (List.length expected)
  | Some m -> Error m
