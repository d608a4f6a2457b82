module Ot = Relalg.Optree

type conflict_mode = Tes_literal | Tes_conservative | Cdc

type derived = {
  tree : Ot.t;
  graph : Hypergraph.Graph.t;
  filter : Core.Emit.filter option;
}

type result = {
  tree : Ot.t;
  graph : Hypergraph.Graph.t;
  plan : Plans.Plan.t;
  counters : Core.Counters.t;
  tier : Core.Adaptive.tier option;
  attempts : Core.Adaptive.attempt list;
  dp_entries : int;
}

type plan_cache = Core.Optimizer.result Cache.Plan_cache.t

let make_cache ~capacity () = Cache.Plan_cache.create ~capacity

let budget_error =
  "work budget exhausted before a plan was found (use the adaptive algorithm \
   for graceful degradation)"

(* The optimizer parameters of one request — everything after the
   hypergraph exists that can change its plan.  The algorithm value
   carries the parameters its algorithm reads. *)
type request = {
  algo : Core.Optimizer.algorithm;
  model : Costing.Cost_model.t option;
  budget : int option;
}

(* The errors an enumeration may raise, as values. *)
let guard f =
  match f () with
  | r -> Ok r
  | exception Invalid_argument m -> Error m
  | exception Core.Counters.Budget_exhausted -> Error budget_error

(* The exact cache key: every input that can change the returned plan
   bytes.  The serialized graph carries node order, cardinalities,
   selectivities, operators, free sets and edge order (edge ids are
   file order); algorithm, cost model, budget and block size are
   prepended; an algorithm without a block size prints
   {!Core.Idp.default_k}, so every key keeps one layout.  Header and
   graph go into one buffer, without Printf: a cache hit pays for
   little else. *)
let exact_key q graph =
  let open Core.Optimizer in
  let k =
    match q.algo with
    | Idp { k } | Partition { k } -> k
    | _ -> Core.Idp.default_k
  in
  let buf = Buffer.create 1024 in
  List.iter (Buffer.add_string buf)
    [
      "algo="; name q.algo;
      " model=";
      (match q.model with
      | Some (m : Costing.Cost_model.t) -> m.name
      | None -> Costing.Cost_model.c_out.name);
      " budget=";
      (match q.budget with Some b -> string_of_int b | None -> "unlimited");
      " k="; string_of_int k; "\n";
    ];
  Hypergraph.Serialize.add_graph buf graph;
  Buffer.contents buf

(* Memoized enumeration.  A conflict-mode validity filter is a
   closure the key cannot capture, so those runs bypass the cache
   rather than risk serving a plan computed under a different filter.
   On a miss the optimizer runs inside the requester's [cache] span (so
   explain shows enumerate nested under cache); a hit or a coalesced
   wait returns the memoized result untouched — the cached plan is
   the exact value a fresh run would build, because the key is exact.

   Returns the optimizer result plus the plan-cache outcome name and
   key, so the telemetry layer can label series and recorder entries
   without re-deriving them.  [fp] is the request's lazy graph
   fingerprint, deferred in the key: a miss forces it, while a hit
   reads the fingerprint its entry stored, so the recorder's label
   never costs a cached request a fingerprint. *)
let run_cached ?obs ?cache ?filter q ~fp graph =
  let run ?filter () =
    Core.Optimizer.run ?obs ?model:q.model ?filter ?budget:q.budget q.algo
      graph
  in
  match cache with
  | Some c when filter = None ->
      Obs.Span.with_opt obs "cache" (fun sp ->
          let key =
            Cache.Plan_cache.deferred_key ~fingerprint:fp
              ~exact:(exact_key q graph)
          in
          let r, outcome =
            Cache.Plan_cache.find_or_compute c key (fun () -> run ())
          in
          let name = Cache.Plan_cache.outcome_name outcome in
          Obs.Span.set_opt sp "cache" (Obs.Span.Str name);
          (r, Some (name, key)))
  | _ -> (run ?filter (), None)

(* ---------- serving telemetry ---------- *)

let latency_help = "End-to-end optimize latency in seconds"

let phase_help = "Per-pipeline-phase latency in seconds"

let tier_help = "Wall-clock seconds spent in each adaptive tier"

(* Depth-0 span names, with the algorithm-specific enumerate span
   collapsed to one "enumerate" phase so the series stays
   low-cardinality. *)
let phase_name (s : Obs.Span.span) =
  if String.starts_with ~prefix:"enumerate:" s.Obs.Span.name then "enumerate"
  else s.Obs.Span.name

(* The histograms one span of the request feeds: a depth-0 span is a
   pipeline phase; an adaptive rung that ran (a rung the budget cut
   short included, a rung skipped on its certificate not) is a tier
   sample. *)
let observe_span tel (s : Obs.Span.span) =
  if s.Obs.Span.depth = 0 then
    Obs.Export.observe_s tel ~help:phase_help
      ~labels:[ ("phase", phase_name s) ]
      "joinopt_phase_latency_seconds" s.Obs.Span.dur_s;
  Option.iter
    (fun tier ->
      Obs.Export.observe_s tel ~help:tier_help
        ~labels:[ ("tier", tier) ]
        "joinopt_tier_latency_seconds" s.Obs.Span.dur_s)
    (Core.Adaptive.ran_tier s)

(* One always-on record per served request: the overall latency
   histogram (labeled by algorithm, plan-cache outcome and
   ok/error), the phase and tier histograms read from the request's
   own spans, and a flight-recorder entry (which keeps the whole span
   tree when the request was slow).  [minor0]/[major0] are the
   serving domain's [Obs.Span.minor_words] and [Gc.counters] major
   words at the request's start.  The entry's label is the graph's
   fingerprint: a cached request's key holds it, any other request
   forces [fp]. *)
let tel_record tel q ~spans ~t0 ~minor0 ~major0 ~graph ~fp outcome =
  let wall_s = Obs.Span.now () -. t0 in
  let minor1 = Obs.Span.minor_words () in
  let _, _, major1 = Gc.counters () in
  let algo_name = Core.Optimizer.name q.algo in
  let ok, tier, pairs, cached =
    match outcome with
    | Ok ((r : Core.Optimizer.result), cached) ->
        ( r.Core.Optimizer.plan <> None,
          Option.map Core.Adaptive.tier_name r.Core.Optimizer.tier,
          r.Core.Optimizer.counters.Core.Counters.pairs_considered,
          cached )
    | Error () -> (false, None, 0, None)
  in
  let cache_outcome = Option.map fst cached in
  Obs.Export.observe_s tel ~help:latency_help
    ~labels:
      [
        ("algo", algo_name);
        ("cache", Option.value cache_outcome ~default:"none");
        ("result", (if ok then "ok" else "error"));
      ]
    "joinopt_optimize_latency_seconds" wall_s;
  List.iter (observe_span tel) spans;
  Obs.Recorder.record (Obs.Export.recorder tel)
    ~fingerprint:
      (Cache.Fingerprint.to_hex
         (match cached with
         | Some (_, key) -> Cache.Plan_cache.fingerprint key
         | None -> Lazy.force fp))
    ~relations:(Hypergraph.Graph.num_nodes graph)
    ~algo:algo_name ?tier ?cache:cache_outcome ~pairs ~wall_s
    ~minor_words:(float_of_int (minor1 - minor0))
    ~major_words:(major1 -. major0)
    ~spans ()

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

(* Validate, simplify, analyze conflicts under [mode] and derive the
   hypergraph, one span per phase.  Only CD-C derives a validity
   filter. *)
let derive ?obs ?cards ?sels ~mode tree =
  match Ot.validate tree with
  | Error e -> Error ("invalid operator tree: " ^ Ot.error_to_string e)
  | Ok () ->
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
        | Tes_literal | Tes_conservative ->
            let conservative = mode = Tes_conservative in
            let a =
              analyzed (fun () -> Conflicts.Analysis.analyze ~conservative tree)
            in
            ( derived (fun () -> Conflicts.Derive.hypergraph ?cards ?sels a),
              None )
        | Cdc ->
            let a = analyzed (fun () -> Conflicts.Cdc.analyze tree) in
            let g, f =
              derived (fun () -> Conflicts.Cdc.derive ?cards ?sels a)
            in
            (g, Some f)
      in
      Ok ({ tree; graph; filter } : derived)

(* What a request brings to enumeration: a derived tree, whose
   simplified form is the result's operator tree, or a bare graph,
   whose winning plan is emitted as one. *)
type front = Derived of derived | Graph of Hypergraph.Graph.t

(* The one path every entry point finishes on.  Telemetry reads its
   phases, tiers and slow-request trees from spans, so a request with
   [?tel] but no [?obs] gets a private collector; the clock starts
   before [front] runs, so parse and bind count.  When [front] fails
   no hypergraph exists and nothing is recorded. *)
let serve ?obs ?tel ?cache q front =
  let ctx =
    match (obs, tel) with None, Some _ -> Some (Obs.Span.create ()) | _ -> obs
  in
  let mark = Option.map Obs.Span.mark ctx in
  let t0 = Obs.Span.now () in
  let minor0 = Obs.Span.minor_words () in
  let _, _, major0 = Gc.counters () in
  match front ctx with
  | Error m -> Error m
  | Ok front -> (
      let graph, filter =
        match front with
        | Derived d -> (d.graph, d.filter)
        | Graph g -> (g, None)
      in
      let fp = lazy (Cache.Fingerprint.of_graph graph) in
      let record outcome =
        match (tel, ctx, mark) with
        | Some tel, Some ctx, Some mark ->
            tel_record tel q ~spans:(Obs.Span.spans_since ctx mark) ~t0
              ~minor0 ~major0 ~graph ~fp outcome
        | _ -> ()
      in
      match guard (fun () -> run_cached ?obs:ctx ?cache ?filter q ~fp graph) with
      | Ok
          ( ({ Core.Optimizer.plan = Some plan; counters; tier; attempts;
               dp_entries } as r),
            outc ) ->
          let tree =
            match front with
            | Derived d -> d.tree
            | Graph g ->
                Obs.Span.with_opt ctx "plan-emit" (fun _ ->
                    Plans.Plan.to_optree g plan)
          in
          record (Ok (r, outc));
          Ok { tree; graph; plan; counters; tier; attempts; dp_entries }
      | Ok (({ Core.Optimizer.plan = None; _ } as r), outc) ->
          record (Ok (r, outc));
          Error "no valid plan found"
      | Error m ->
          record (Error ());
          Error m)

let optimize_tree ?obs ?tel ?cache ?(mode = Tes_literal)
    ?(algo = Core.Optimizer.Dphyp) ?model ?budget ?cards ?sels tree =
  let q = { algo; model; budget } in
  serve ?obs ?tel ?cache q (fun ctx ->
      derive ?obs:ctx ?cards ?sels ~mode tree
      |> Result.map (fun d -> Derived d))

let optimize_sql ?obs ?tel ?cache ?(mode = Tes_literal)
    ?(algo = Core.Optimizer.Dphyp) ?model ?budget ?cards ?sels sql =
  let q = { algo; model; budget } in
  serve ?obs ?tel ?cache q (fun ctx ->
      match
        Obs.Span.with_opt ctx "parse" (fun _ ->
            Sqlfront.Binder.parse_and_bind sql)
      with
      | Error m -> Error m
      | Ok bound ->
          derive ?obs:ctx ?cards ?sels ~mode bound.tree
          |> Result.map (fun d -> Derived d))

let optimize_graph ?obs ?tel ?cache ?(algo = Core.Optimizer.Dphyp) ?model
    ?budget graph =
  let q = { algo; model; budget } in
  serve ?obs ?tel ?cache q (fun _ -> Ok (Graph graph))

(* Inter-query parallelism, one shot: the caller and [min jobs n - 1]
   spawned domains take task indices from one atomic counter, each
   running [f] — typically a full sequential pipeline call — on the
   domain that took it.  A failure moves the counter past the end, so
   no task starts after it.  Every index below the failing one was
   taken by then, so the lowest-indexed failing task always runs, and
   its exception is the one re-raised.  [Domain.join] publishes the
   workers' writes to [out] and [err]. *)
let run_batch ~jobs f xs =
  if jobs < 1 then invalid_arg "Pipeline.run_batch: jobs must be >= 1";
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let out = Array.make n None and err = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match f xs.(i) with
      | y -> out.(i) <- Some y
      | exception e ->
          err.(i) <- Some (e, Printexc.get_raw_backtrace ());
          Atomic.set next n);
      work ()
    end
  in
  let domains =
    List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  List.iter Domain.join domains;
  match Array.find_map Fun.id err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.to_list (Array.map Option.get out)

let verify_on_data ?(rows = 8) ?(seed = 42) r =
  let inst = Executor.Instance.for_tree ~rows ~seed r.tree in
  let expected = Executor.Exec.eval inst r.tree in
  let got = Executor.Exec.eval inst (Plans.Plan.to_optree r.graph r.plan) in
  let universe = Executor.Exec.output_tables r.tree in
  match Executor.Bag.diff_summary ~universe expected got with
  | None -> Ok (List.length expected)
  | Some m -> Error m
