(* Plan-cache layer: fingerprint invariances (qcheck), eviction and
   single-flight semantics of the concurrent cache, and the
   differential guarantee that a cached plan is byte-identical to a
   fresh uncached enumeration across algorithms, modes and batch
   jobs counts. *)

module Fp = Cache.Fingerprint
module Pc = Cache.Plan_cache
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Ns = Nodeset.Node_set

let check = Alcotest.(check bool)

(* ---------- graph surgery helpers ---------- *)

let map_set perm s = Ns.fold (fun i acc -> Ns.add perm.(i) acc) s Ns.empty

(* Relabel relations under a permutation: node i of [g] becomes node
   [perm.(i)], with every hypernode and free set mapped along.  The
   query is the same up to naming, so the fingerprint must not move. *)
let relabel perm g =
  let n = G.num_nodes g in
  let rels = Array.make n (G.relation g 0) in
  for i = 0 to n - 1 do
    let r = G.relation g i in
    rels.(perm.(i)) <- { r with G.free = map_set perm r.G.free }
  done;
  let edges =
    Array.map
      (fun (e : He.t) ->
        He.make ~id:e.He.id ~w:(map_set perm e.He.w) ~op:e.He.op
          ~pred:e.He.pred ~sel:e.He.sel ~aggs:e.He.aggs (map_set perm e.He.u)
          (map_set perm e.He.v))
      (G.edges g)
  in
  G.make rels edges

(* Same edges in a different file order (ids renumbered to match). *)
let reorder_edges eperm g =
  let edges = G.edges g in
  let out =
    Array.init (Array.length edges) (fun i ->
        let e = edges.(eperm.(i)) in
        He.make ~id:i ~w:e.He.w ~op:e.He.op ~pred:e.He.pred ~sel:e.He.sel
          ~aggs:e.He.aggs e.He.u e.He.v)
  in
  G.make (Array.init (G.num_nodes g) (G.relation g)) out

let with_card i card g =
  let rels =
    Array.init (G.num_nodes g) (fun j ->
        let r = G.relation g j in
        if j = i then { r with G.card } else r)
  in
  G.make rels (G.edges g)

let with_sel id sel g =
  let edges =
    Array.map
      (fun (e : He.t) ->
        if e.He.id = id then
          He.make ~id:e.He.id ~w:e.He.w ~op:e.He.op ~pred:e.He.pred ~sel
            ~aggs:e.He.aggs e.He.u e.He.v
        else e)
      (G.edges g)
  in
  G.make (Array.init (G.num_nodes g) (G.relation g)) edges

let random_perm rng n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let random_graph seed =
  Workloads.Random_graphs.hyper ~seed:((7919 * seed) + 13)
    ~n:(4 + (seed mod 4))
    ~extra_edges:(seed mod 3)
    ~hyperedges:(1 + (seed mod 2))
    ~max_hypernode:3 ()

(* ---------- fingerprint properties (qcheck) ---------- *)

let fp_relabel_invariant =
  QCheck.Test.make ~name:"invariant under relation relabeling" ~count:60
    QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      let perm = random_perm (Random.State.make [| seed; 77 |]) (G.num_nodes g) in
      Fp.equal (Fp.of_graph g) (Fp.of_graph (relabel perm g)))

let fp_edge_order_invariant =
  QCheck.Test.make ~name:"invariant under edge reordering" ~count:60
    QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      let eperm = random_perm (Random.State.make [| seed; 19 |]) (G.num_edges g) in
      Fp.equal (Fp.of_graph g) (Fp.of_graph (reorder_edges eperm g)))

let fp_deterministic =
  QCheck.Test.make ~name:"no address-based hashing (recompute = same)"
    ~count:60 QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      (* a structurally identical rebuild lives at different addresses *)
      let g' =
        G.make
          (Array.init (G.num_nodes g) (G.relation g))
          (Array.map Fun.id (G.edges g))
      in
      Fp.equal (Fp.of_graph g) (Fp.of_graph g')
      && Fp.to_hex (Fp.of_graph g) = Fp.to_hex (Fp.of_graph g'))

(* Crossing a half-decade cardinality or selectivity bucket must move
   the fingerprint; drifting within one bucket must not.  The drifted
   stat is placed a quarter of the way into the same bucket, so it is
   in-bucket by construction (a fixed relative nudge could straddle a
   boundary for unlucky seeds). *)
let same_bucket_value b = Float.pow 10.0 ((float_of_int b +. 0.25) /. 2.0)

let fp_card_bucket =
  QCheck.Test.make ~name:"cardinality buckets separate / drift sticks"
    ~count:40 QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      let i = seed mod G.num_nodes g in
      let fp = Fp.of_graph g in
      let jumped = Fp.of_graph (with_card i 3.0e6 g) in
      let b = Costing.Cardinality.card_bucket (G.cardinality g i) in
      let drifted = Fp.of_graph (with_card i (same_bucket_value b) g) in
      (not (Fp.equal fp jumped)) && Fp.equal fp drifted)

let fp_sel_bucket =
  QCheck.Test.make ~name:"selectivity buckets separate / drift sticks"
    ~count:40 QCheck.small_nat (fun seed ->
      let g = random_graph seed in
      let id = seed mod G.num_edges g in
      let fp = Fp.of_graph g in
      let jumped = Fp.of_graph (with_sel id 1e-6 g) in
      let b = Costing.Cardinality.sel_bucket (G.edge g id).He.sel in
      let drifted = Fp.of_graph (with_sel id (same_bucket_value b) g) in
      (not (Fp.equal fp jumped)) && Fp.equal fp drifted)

(* Golden value: the fingerprint is part of the cache's on-the-wire
   behavior (shard routing, future persistence), so an accidental
   change to the mixing scheme should fail loudly, not silently
   re-shuffle every cache. *)
let test_fp_golden () =
  Alcotest.(check string)
    "pinned star-4 fingerprint" "19a2e4ca75084c3a"
    (Fp.to_hex (Fp.of_graph (Workloads.Shapes.star 4)))

(* ---------- cache mechanics ---------- *)

let mk_key tag seed =
  Pc.key ~fingerprint:(Fp.of_graph (random_graph seed)) ~exact:tag

let test_hit_miss_counting () =
  let c = Pc.create ~capacity:8 in
  let v, o = Pc.find_or_compute c (mk_key "a" 1) (fun () -> 1) in
  Alcotest.(check int) "computed" 1 v;
  check "first is a miss" true (o = Pc.Miss);
  let v, o = Pc.find_or_compute c (mk_key "a" 1) (fun () -> 99) in
  Alcotest.(check int) "served from cache" 1 v;
  check "second is a hit" true (o = Pc.Hit);
  ignore (Pc.find_or_compute c (mk_key "b" 2) (fun () -> 2));
  let s = Pc.stats c in
  Alcotest.(check int) "hits" 1 s.Pc.hits;
  Alcotest.(check int) "misses" 2 s.Pc.misses;
  Alcotest.(check int) "entries" 2 s.Pc.entries;
  (* the `plan cache:` line of `joinopt explain --cache` *)
  Alcotest.(check string) "rendered stats"
    "hits=1 misses=2 coalesced=0 evictions=0 entries=2/8"
    (Format.asprintf "%a" Pc.pp_stats s);
  check "find peeks" true (Pc.find c (mk_key "b" 2) = Some 2);
  check "find misses absent" true (Pc.find c (mk_key "c" 3) = None)

let test_capacity_eviction () =
  let c = Pc.create ~capacity:4 in
  for i = 0 to 5 do
    ignore
      (Pc.find_or_compute c (mk_key (string_of_int i) i) (fun () -> i))
  done;
  let s = Pc.stats c in
  Alcotest.(check int) "bounded" 4 s.Pc.entries;
  Alcotest.(check int) "evictions counted" 2 s.Pc.evictions

(* GreedyDual: an expensive-to-recompute entry must outlive cheap ones
   under pressure, even when the cheap ones are equally recent. *)
let test_cost_aware_eviction () =
  let c = Pc.create ~capacity:4 in
  let insert tag cost_s =
    ignore
      (Pc.find_or_compute c (mk_key tag 0) (fun () ->
           if cost_s > 0.0 then Unix.sleepf cost_s;
           tag))
  in
  insert "cheap1" 0.0;
  insert "expensive" 0.05;
  insert "cheap2" 0.0;
  insert "cheap3" 0.0;
  (* two more insertions evict the two lowest-priority entries; both
     victims must be cheap ones *)
  insert "cheap4" 0.0;
  insert "cheap5" 0.0;
  check "expensive entry survives pressure" true
    (Pc.find c (mk_key "expensive" 0) = Some "expensive");
  Alcotest.(check int) "evicted two" 2 (Pc.stats c).Pc.evictions

let test_single_flight () =
  let c = Pc.create ~capacity:8 in
  let computed = Atomic.make 0 in
  let key = mk_key "flight" 5 in
  let work () =
    Pc.find_or_compute c key (fun () ->
        Atomic.incr computed;
        Unix.sleepf 0.05;
        "value")
  in
  let d = Domain.spawn work in
  let v1, _o1 = work () in
  let v2, _o2 = Domain.join d in
  Alcotest.(check string) "both served" "valuevalue" (v1 ^ v2);
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed);
  let s = Pc.stats c in
  Alcotest.(check int) "one miss" 1 s.Pc.misses;
  Alcotest.(check int) "other request coalesced or hit" 1
    (s.Pc.hits + s.Pc.coalesced)

let test_failure_recovery () =
  let c = Pc.create ~capacity:8 in
  let key = mk_key "boom" 6 in
  (match Pc.find_or_compute c key (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure m -> Alcotest.(check string) "original exn" "boom" m);
  (* the in-flight marker is gone: the key is computable again *)
  let v, o = Pc.find_or_compute c key (fun () -> "ok") in
  Alcotest.(check string) "recomputed after failure" "ok" v;
  check "fresh miss" true (o = Pc.Miss)

(* A hit or a coalesced wait reads the fingerprint its entry stored:
   the requester's deferred fingerprint raises if forced, so any
   fingerprinting on those paths fails the test. *)
let test_served_keys_not_fingerprinted () =
  let c = Pc.create ~capacity:8 in
  let fp = Fp.of_graph (random_graph 3) in
  let unforced exact =
    Pc.deferred_key ~fingerprint:(lazy (failwith "fingerprinted")) ~exact
  in
  let miss = Pc.deferred_key ~fingerprint:(lazy fp) ~exact:"q" in
  check "first is a miss" true
    (Pc.find_or_compute c miss (fun () -> 1) = (1, Pc.Miss));
  let k = unforced "q" in
  check "second is a hit" true
    (Pc.find_or_compute c k (fun () -> 2) = (1, Pc.Hit));
  check "the hit reads the stored fingerprint" true
    (Fp.equal fp (Pc.fingerprint k));
  (* a waiter on another domain's miss *)
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Pc.find_or_compute c (Pc.key ~fingerprint:fp ~exact:"slow") (fun () ->
            Atomic.set started true;
            Unix.sleepf 0.05;
            3))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let k = unforced "slow" in
  let v, o = Pc.find_or_compute c k (fun () -> 4) in
  ignore (Domain.join d);
  check "the waiter is served" true
    (v = 3 && (o = Pc.Coalesced || o = Pc.Hit));
  check "the waiter reads the stored fingerprint" true
    (Fp.equal fp (Pc.fingerprint k))

(* ---------- cached plans are byte-identical to fresh ones ---------- *)

let render (r : (Driver.Pipeline.result, string) Result.t) =
  match r with
  | Error m -> "error: " ^ m
  | Ok r ->
      Printf.sprintf "%s cost=%.17g card=%.17g tier=%s"
        (Plans.Plan.to_string r.Driver.Pipeline.plan)
        r.Driver.Pipeline.plan.Plans.Plan.cost
        r.Driver.Pipeline.plan.Plans.Plan.card
        (match r.Driver.Pipeline.tier with
        | Some t -> Core.Adaptive.tier_name t
        | None -> "-")

let test_differential_graphs () =
  let cache = Driver.Pipeline.make_cache ~capacity:256 () in
  List.iter
    (fun seed ->
      let g = random_graph seed in
      List.iter
        (fun algo ->
          let fresh = render (Driver.Pipeline.optimize_graph ~algo g) in
          (* miss then hit: both must equal the uncached render *)
          let miss = render (Driver.Pipeline.optimize_graph ~cache ~algo g) in
          let hit = render (Driver.Pipeline.optimize_graph ~cache ~algo g) in
          let name =
            Printf.sprintf "seed %d %s" seed (Core.Optimizer.name algo)
          in
          Alcotest.(check string) (name ^ ": miss = fresh") fresh miss;
          Alcotest.(check string) (name ^ ": hit = fresh") fresh hit)
        Core.Optimizer.all)
    [ 0; 1; 2; 3; 4; 5 ]

(* A batch sweep: every jobs count serves four copies of one request
   through a shared cache, each on its own graph.  All equal the fresh
   render, and single flight makes the first batch's one miss the only
   one. *)
let test_differential_jobs () =
  let cache = Driver.Pipeline.make_cache ~capacity:64 () in
  let fresh = render (Driver.Pipeline.optimize_graph (Workloads.Shapes.star 7)) in
  List.iter
    (fun jobs ->
      Driver.Pipeline.run_batch ~jobs
        (fun g -> render (Driver.Pipeline.optimize_graph ~cache g))
        (List.init 4 (fun _ -> Workloads.Shapes.star 7))
      |> List.iter
           (Alcotest.(check string)
              (Printf.sprintf "jobs=%d same bytes through cache" jobs)
              fresh))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "one miss across the jobs sweep" 1
    (Pc.stats cache).Pc.misses

(* [-a partition] names the adaptive ladder's stitch size 10, and the
   key prints the algorithm's k: the default and k = 7 never share an
   entry, while an explicit k = 10 finds the default's entry. *)
let test_partition_k_key () =
  let cache = Driver.Pipeline.make_cache ~capacity:8 () in
  let g = Workloads.Shapes.snowflake_n 80 in
  let optimize ?cache algo =
    render (Driver.Pipeline.optimize_graph ?cache ~algo g)
  and partition k = Core.Optimizer.Partition { k } in
  let default =
    optimize ~cache (Option.get (Core.Optimizer.of_name "partition"))
  in
  let k7 = optimize ~cache (partition 7) in
  Alcotest.(check int) "k = 7 misses" 2 (Pc.stats cache).Pc.misses;
  Alcotest.(check string)
    "k = 7 entry is a k = 7 plan" (optimize (partition 7)) k7;
  check "k = 7 plan differs from the default" true (default <> k7);
  let k10 = optimize ~cache (partition 10) in
  Alcotest.(check string) "k = 10 hits the default entry" default k10;
  Alcotest.(check int) "one hit" 1 (Pc.stats cache).Pc.hits

(* The exact key's layout, pinned by the Printf format it was first
   written with: a request's entry is found under the key that format
   builds, for block sizes, DPconv, another cost model and a
   budget. *)
let test_exact_key_layout () =
  let module Opt = Core.Optimizer in
  let g = Workloads.Shapes.clique 6 in
  let d = Core.Idp.default_k in
  List.iter
    (fun (algo, model, budget, (a, m, b, k)) ->
      let exact =
        Printf.sprintf "algo=%s model=%s budget=%s k=%d\n%s" a m b k
          (Hypergraph.Serialize.to_string g)
      in
      let cache = Driver.Pipeline.make_cache ~capacity:4 () in
      (match Driver.Pipeline.optimize_graph ~cache ~algo ?model ?budget g with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" a msg);
      check (String.escaped exact) true
        (Pc.find cache (Pc.key ~fingerprint:(Fp.of_graph g) ~exact) <> None))
    [
      (Opt.Dphyp, None, None, ("dphyp", "cout", "unlimited", d));
      (Opt.Idp { k = 4 }, None, None, ("idp", "cout", "unlimited", 4));
      ( Opt.Partition { k = 3 }, None, None,
        ("partition", "cout", "unlimited", 3) );
      (Opt.Dpconv, None, None, ("dpconv", "cout", "unlimited", d));
      ( Opt.Dphyp, Some Costing.Cost_model.c_mm, None,
        ("dphyp", "cmm", "unlimited", d) );
      (Opt.Adaptive, None, Some 5_000, ("adaptive", "cout", "5000", d));
    ]

let batch_sql =
  [
    "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y";
    "SELECT * FROM a, b, c, d WHERE a.x = b.x AND b.y = c.y AND c.z = d.z \
     AND d.w = a.w";
    "SELECT * FROM h, s1, s2, s3 WHERE h.a = s1.a AND h.b = s2.b AND h.c = \
     s3.c";
  ]

let tree_of sql =
  match Sqlfront.Binder.parse_and_bind sql with
  | Ok b -> b.Sqlfront.Binder.tree
  | Error m -> Alcotest.failf "parse %S: %s" sql m

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Cached requests served with telemetry: the plans stay fresh-equal,
   every flight-recorder entry carries the graph's fingerprint (a miss
   computes it for the key and the recorder, a hit reads the one its
   entry stored), and the registry exports the serving series. *)
let test_differential_modes () =
  let cache = Driver.Pipeline.make_cache ~capacity:64 () in
  let tel = Obs.Export.create () in
  let newest_entry () =
    List.hd (List.rev (Obs.Recorder.to_list (Obs.Export.recorder tel)))
  in
  List.iter
    (fun sql ->
      let tree = tree_of sql in
      List.iter
        (fun mode ->
          let fresh = render (Driver.Pipeline.optimize_tree ~mode tree) in
          (* returns the render and the recorded cache outcome *)
          let served () =
            let r = Driver.Pipeline.optimize_tree ~tel ~cache ~mode tree in
            let q = newest_entry () in
            (match r with
            | Ok r ->
                Alcotest.(check string)
                  (sql ^ ": recorder fingerprint = cache key's")
                  (Fp.to_hex (Fp.of_graph r.Driver.Pipeline.graph))
                  q.Obs.Recorder.fingerprint
            | Error m -> Alcotest.failf "%s: %s" sql m);
            (render r, q.Obs.Recorder.cache)
          in
          (* the first request misses, unless the previous mode derived
             the same graph *)
          let miss, _ = served () in
          let hit, outcome = served () in
          Alcotest.(check (option string))
            (sql ^ ": repeat is a recorded hit") (Some "hit") outcome;
          Alcotest.(check string) (sql ^ ": miss = fresh") fresh miss;
          Alcotest.(check string) (sql ^ ": hit = fresh") fresh hit)
        [ Driver.Pipeline.Tes_literal; Driver.Pipeline.Tes_conservative ])
    batch_sql;
  Driver.Pipeline.export_cache_stats tel cache;
  let prom = Obs.Export.prometheus tel and json = Obs.Export.to_json tel in
  List.iter
    (fun sub ->
      check (Printf.sprintf "exposition has %s" sub) true (contains prom sub))
    [
      {|joinopt_optimize_latency_seconds_bucket{algo="dphyp",cache="hit",result="ok",le="+Inf"}|};
      {|joinopt_plan_cache_requests_total{outcome="hit"}|};
      {|joinopt_plan_cache_entries{shard="|};
    ];
  List.iter
    (fun sub ->
      check (Printf.sprintf "telemetry json has %s" sub) true
        (contains json sub))
    [ {|"schema": "obs_telemetry/v1"|}; {|"p999_ms"|}; {|"slow_requests"|};
      {|"fingerprint"|} ];
  check "no NaN in exposition" false
    (contains (String.lowercase_ascii prom) "nan")

(* CD-C's validity filter is a closure, so its requests must bypass
   the cache: same answer as uncached, and the cache counters never
   move. *)
let test_filter_mode_bypass () =
  let cache = Driver.Pipeline.make_cache ~capacity:64 () in
  let tree = tree_of (List.hd batch_sql) in
  let mode = Driver.Pipeline.Cdc in
  let fresh = render (Driver.Pipeline.optimize_tree ~mode tree) in
  let cached = render (Driver.Pipeline.optimize_tree ~cache ~mode tree) in
  Alcotest.(check string) "bypass preserves the answer" fresh cached;
  let s = Pc.stats cache in
  Alcotest.(check int) "no hits" 0 s.Pc.hits;
  Alcotest.(check int) "no misses" 0 s.Pc.misses

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest fp_relabel_invariant;
          QCheck_alcotest.to_alcotest fp_edge_order_invariant;
          QCheck_alcotest.to_alcotest fp_deterministic;
          QCheck_alcotest.to_alcotest fp_card_bucket;
          QCheck_alcotest.to_alcotest fp_sel_bucket;
          Alcotest.test_case "golden hex" `Quick test_fp_golden;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss counting" `Quick test_hit_miss_counting;
          Alcotest.test_case "capacity eviction" `Quick
            test_capacity_eviction;
          Alcotest.test_case "cost-aware eviction" `Quick
            test_cost_aware_eviction;
          Alcotest.test_case "single flight" `Quick test_single_flight;
          Alcotest.test_case "failure recovery" `Quick test_failure_recovery;
          Alcotest.test_case "served keys are not fingerprinted" `Quick
            test_served_keys_not_fingerprinted;
        ] );
      ( "differential",
        [
          Alcotest.test_case "graphs x algorithms" `Quick
            test_differential_graphs;
          Alcotest.test_case "jobs sweep" `Quick test_differential_jobs;
          Alcotest.test_case "partition default k in the key" `Quick
            test_partition_k_key;
          Alcotest.test_case "exact key layout" `Quick test_exact_key_layout;
          Alcotest.test_case "conflict modes" `Quick test_differential_modes;
          Alcotest.test_case "filter modes bypass" `Quick
            test_filter_mode_bypass;
        ] );
    ]
