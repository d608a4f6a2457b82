(* Observability plumbing: sink durability.  The Jsonl sink must make
   every completed span visible on disk immediately (a crashed run
   still leaves a readable trace) and close must really release the
   underlying channel. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_temp f =
  let path = Filename.temp_file "obs_sink" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_jsonl_flushes_per_span () =
  with_temp (fun path ->
      let oc = open_out path in
      let sink = Obs.Sink.Jsonl oc in
      let ctx = Obs.Span.create ~sink () in
      Obs.Span.with_ ctx "phase-one" (fun sp ->
          Obs.Span.set sp "rows" (Obs.Span.Int 7));
      (* deliberately NO close: emit must have flushed already *)
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) "span on disk without close" true
        (contains line "\"phase-one\"");
      Alcotest.(check bool) "attrs on disk too" true
        (contains line "\"rows\": 7");
      Obs.Sink.close sink)

let test_close_closes_channel () =
  with_temp (fun path ->
      let oc = open_out path in
      let sink = Obs.Sink.Jsonl oc in
      Obs.Sink.emit sink
        {
          Obs.Sink.name = "only";
          depth = 0;
          start_s = 0.0;
          dur_s = 0.001;
          minor_words = 0.0;
          major_words = 0.0;
          attrs = [];
        };
      Obs.Sink.close sink;
      (* the channel must be gone: further output fails *)
      Alcotest.(check bool) "writing after close fails" true
        (match
           output_string oc "trailing";
           flush oc
         with
        | () -> false
        | exception Sys_error _ -> true);
      let ic = open_in path in
      let line = input_line ic in
      let eof = match input_line ic with
        | _ -> false
        | exception End_of_file -> true
      in
      close_in ic;
      Alcotest.(check bool) "exactly the emitted span" true
        (contains line "\"only\"" && eof))

(* Two domains hammering one sink concurrently (each through its own
   span context — contexts stay single-domain, only the sink is
   shared, as in Driver.Pipeline.run_batch).  Every span must survive,
   and for Jsonl every line must parse as a complete record: a torn
   write would interleave fragments. *)

let span_storm tag rounds sink =
  let ctx = Obs.Span.create ~sink () in
  for i = 0 to rounds - 1 do
    Obs.Span.with_ ctx (Printf.sprintf "%s-%d" tag i) (fun sp ->
        Obs.Span.set sp "round" (Obs.Span.Int i))
  done

let test_memory_concurrent_emit () =
  let rounds = 500 in
  let spans = ref [] in
  let sink = Obs.Sink.Memory spans in
  let d = Domain.spawn (fun () -> span_storm "left" rounds sink) in
  span_storm "right" rounds sink;
  Domain.join d;
  Alcotest.(check int) "no span lost" (2 * rounds) (List.length !spans);
  let count tag =
    List.length
      (List.filter
         (fun (s : Obs.Sink.span) -> contains s.name (tag ^ "-"))
         !spans)
  in
  Alcotest.(check int) "all left spans" rounds (count "left");
  Alcotest.(check int) "all right spans" rounds (count "right")

let test_jsonl_concurrent_emit () =
  with_temp (fun path ->
      let rounds = 300 in
      let oc = open_out path in
      let sink = Obs.Sink.Jsonl oc in
      let d = Domain.spawn (fun () -> span_storm "left" rounds sink) in
      span_storm "right" rounds sink;
      Domain.join d;
      Obs.Sink.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = !lines in
      Alcotest.(check int) "one line per span" (2 * rounds)
        (List.length lines);
      List.iter
        (fun line ->
          (* un-torn lines: each is one complete span record *)
          Alcotest.(check bool) "line is a complete record" true
            (String.length line > 0
            && line.[0] = '{'
            && line.[String.length line - 1] = '}'
            && contains line "\"round\""))
        lines)

(* Two domains hammering one plan cache: the atomic counters the
   Metrics cache_stats snapshot reads must conserve — every request is
   exactly one of hit / miss / coalesced, no increment may be lost to
   a data race, and with capacity above the key universe the misses
   are exactly the distinct keys. *)
let test_cache_counter_hammer () =
  let cache = Cache.Plan_cache.create ~capacity:64 () in
  let distinct = 10 and rounds = 400 in
  let fp = Cache.Fingerprint.of_graph (Workloads.Shapes.star 4) in
  let hammer tag =
    for i = 0 to rounds - 1 do
      let k =
        Cache.Plan_cache.key ~fingerprint:fp
          ~exact:(string_of_int (i mod distinct))
      in
      let v, _ = Cache.Plan_cache.find_or_compute cache k (fun () -> i mod distinct) in
      if v <> i mod distinct then
        Alcotest.failf "%s: wrong value for key %d" tag (i mod distinct)
    done
  in
  let d = Domain.spawn (fun () -> hammer "left") in
  hammer "right";
  Domain.join d;
  let s = Cache.Plan_cache.stats cache in
  Alcotest.(check int) "every request accounted for" (2 * rounds)
    (s.Cache.Plan_cache.hits + s.Cache.Plan_cache.misses
   + s.Cache.Plan_cache.coalesced);
  Alcotest.(check int) "each key computed exactly once" distinct
    s.Cache.Plan_cache.misses;
  Alcotest.(check int) "no evictions below capacity" 0
    s.Cache.Plan_cache.evictions;
  Alcotest.(check int) "all keys resident" distinct s.Cache.Plan_cache.entries

(* JSON escaping: a span whose name or attributes carry quotes,
   backslashes or control characters must still serialize to valid
   JSON — the raw character may never reach the output, only its
   escape. *)

let hostile_span =
  {
    Obs.Sink.name = "he said \"hi\"\\\npath\tend";
    depth = 0;
    start_s = 0.0;
    dur_s = 0.001;
    minor_words = 0.0;
    major_words = 0.0;
    attrs = [ ("zkey", Obs.Sink.Str "v\"w"); ("akey", Obs.Sink.Int 1) ];
  }

let has_raw_control s =
  String.exists (fun c -> Char.code c < 0x20) s

let test_span_json_escaping () =
  let j = Obs.Sink.span_to_json hostile_span in
  Alcotest.(check bool) "no raw control characters" false
    (has_raw_control j);
  Alcotest.(check bool) "quotes escaped" true
    (contains j {|he said \"hi\"|});
  Alcotest.(check bool) "backslash escaped" true (contains j {|\"\\\n|});
  Alcotest.(check bool) "tab escaped" true (contains j {|\tend|});
  Alcotest.(check bool) "attr value escaped" true (contains j {|v\"w|})

let test_span_json_attrs_sorted () =
  let j = Obs.Sink.span_to_json hostile_span in
  let idx sub =
    let n = String.length j and m = String.length sub in
    let rec go i = if i + m > n then -1
      else if String.sub j i m = sub then i else go (i + 1)
    in
    go 0
  in
  let a = idx {|"akey"|} and z = idx {|"zkey"|} in
  Alcotest.(check bool) "both attrs present" true (a >= 0 && z >= 0);
  Alcotest.(check bool) "attrs sorted by key" true (a < z)

let test_chrome_json_escaping () =
  (* the document itself is pretty-printed (raw newlines between
     events are legitimate); inside string values, every control
     character must be escaped *)
  let j = Obs.Sink.chrome_trace_json [ hostile_span ] in
  Alcotest.(check bool) "no raw tab" false (String.contains j '\t');
  Alcotest.(check bool) "quotes escaped" true
    (contains j {|he said \"hi\"|});
  Alcotest.(check bool) "newline in name escaped" true
    (contains j {|\"\\\npath|})

(* Metrics.make sorts spans chronologically with a deterministic
   (start, depth, name) tie-break: two permutations of the same span
   list must produce the same profile. *)
let test_metrics_span_order_deterministic () =
  let sp name depth start_s =
    {
      Obs.Sink.name;
      depth;
      start_s;
      dur_s = 0.001;
      minor_words = 0.0;
      major_words = 0.0;
      attrs = [];
    }
  in
  let spans =
    [ sp "b" 1 0.5; sp "a" 1 0.5; sp "c" 0 0.5; sp "z" 0 0.1 ]
  in
  let order l =
    List.map
      (fun (s : Obs.Sink.span) -> s.name)
      (Obs.Metrics.make ~total_s:1.0 l).Obs.Metrics.spans
  in
  Alcotest.(check (list string))
    "permutations sort identically" (order spans)
    (order (List.rev spans));
  Alcotest.(check (list string))
    "ties break by depth then name" [ "z"; "c"; "a"; "b" ] (order spans)

(* ------------------------------------------------------------------ *)
(* Histogram: quantile error bound, merge identity, cross-domain
   counter conservation.                                              *)

module H = Obs.Histogram

let record_all l =
  let h = H.create () in
  List.iter (H.record h) l;
  H.snapshot h

(* nearest-rank quantile on the exact sorted list — the model the
   histogram approximates *)
let exact_quantile l q =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let values_gen = QCheck.(list_of_size Gen.(1 -- 200) (int_bound 5_000_000))

let qcheck_quantile_bound =
  QCheck.Test.make ~name:"quantile within one bucket of exact" ~count:300
    QCheck.(pair values_gen (int_bound 1000))
    (fun (l, permille) ->
      QCheck.assume (l <> []);
      let q = float_of_int permille /. 1000.0 in
      let s = record_all l in
      let e = exact_quantile l q in
      let h = H.quantile s q in
      e <= h && h - e <= e / 64)

let qcheck_count_le_model =
  QCheck.Test.make ~name:"count_le counts whole buckets" ~count:300
    QCheck.(pair values_gen (int_bound 5_000_000))
    (fun (l, v) ->
      let s = record_all l in
      let model =
        List.length
          (List.filter (fun x -> H.bucket_high (H.bucket_of x) <= v) l)
      in
      H.count_le s v = model)

let qcheck_merge_identity =
  QCheck.Test.make ~name:"merge = record both streams" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (a, b) ->
      H.equal_snapshot
        (H.merge (record_all a) (record_all b))
        (record_all (a @ b)))

(* Two domains recording concurrently into one histogram: after the
   join, the snapshot must account for every value exactly — total
   count, exact sum, exact extrema.  A lost update or a torn stripe
   merge shows up as a missing count. *)
let test_histogram_two_domain_conservation () =
  let h = H.create () in
  let n = 20_000 in
  let record_range lo =
    for i = lo to lo + n - 1 do
      H.record h i
    done
  in
  let d = Domain.spawn (fun () -> record_range 1) in
  record_range (n + 1);
  Domain.join d;
  let s = H.snapshot h in
  Alcotest.(check int) "every record counted" (2 * n) (H.count s);
  Alcotest.(check int) "exact sum" (n * (2 * n + 1)) (H.sum s);
  Alcotest.(check int) "exact min" 1 (H.min_recorded s);
  Alcotest.(check int) "exact max" (2 * n) (H.max_recorded s)

(* ------------------------------------------------------------------ *)
(* Flight recorder: bounded ring, slow-span promotion, slowest-k.     *)

let rec_record ?spans ?(wall_s = 0.001) r fp =
  Obs.Recorder.record r ~fingerprint:fp ~relations:4 ~algo:"dphyp"
    ~pairs:10 ~wall_s ~minor_words:0.0 ~major_words:0.0 ?spans ()

let test_recorder_ring_bounded () =
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 0 to 9 do
    rec_record r (string_of_int i)
  done;
  Alcotest.(check int) "all appends counted" 10 (Obs.Recorder.recorded r);
  let kept = Obs.Recorder.to_list r in
  Alcotest.(check (list string))
    "ring keeps the newest, oldest first"
    [ "6"; "7"; "8"; "9" ]
    (List.map (fun q -> q.Obs.Recorder.fingerprint) kept);
  Alcotest.(check (list int))
    "seq never resets" [ 6; 7; 8; 9 ]
    (List.map (fun q -> q.Obs.Recorder.seq) kept)

let test_recorder_promotion () =
  let r = Obs.Recorder.create ~slow_s:0.05 ~capacity:8 () in
  let spans = [ hostile_span ] in
  rec_record ~spans ~wall_s:0.01 r "fast";
  rec_record ~spans ~wall_s:0.06 r "slow";
  let spans_of fp =
    let q =
      List.find
        (fun q -> q.Obs.Recorder.fingerprint = fp)
        (Obs.Recorder.to_list r)
    in
    List.length q.Obs.Recorder.spans
  in
  Alcotest.(check int) "fast request drops its spans" 0 (spans_of "fast");
  Alcotest.(check int) "slow request keeps its spans" 1 (spans_of "slow")

(* Provenance summaries ride the same slow-promotion gate as spans:
   always accepted by [record], kept only for slow requests. *)
let test_recorder_provenance_promotion () =
  let r = Obs.Recorder.create ~slow_s:0.05 ~capacity:8 () in
  let provenance = [ ("{R0,R1,R2}", 123.5); ("{R0,R1}", 10.0) ] in
  Obs.Recorder.record r ~fingerprint:"fast" ~relations:4 ~algo:"dphyp"
    ~pairs:10 ~wall_s:0.01 ~minor_words:0.0 ~major_words:0.0 ~provenance ();
  Obs.Recorder.record r ~fingerprint:"slow" ~relations:4 ~algo:"dphyp"
    ~pairs:10 ~wall_s:0.06 ~minor_words:0.0 ~major_words:0.0 ~provenance ();
  let prov_of fp =
    let q =
      List.find
        (fun q -> q.Obs.Recorder.fingerprint = fp)
        (Obs.Recorder.to_list r)
    in
    q.Obs.Recorder.provenance
  in
  Alcotest.(check int) "fast request drops provenance" 0
    (List.length (prov_of "fast"));
  Alcotest.(check (list string))
    "slow request keeps provenance in order" [ "{R0,R1,R2}"; "{R0,R1}" ]
    (List.map fst (prov_of "slow"));
  (* and the JSON export renders it as a parseable array *)
  let json = Obs.Export.request_json (List.nth (Obs.Recorder.to_list r) 1) in
  Alcotest.(check bool) "json has provenance key" true
    (let contains needle hay =
       let nh = String.length hay and nn = String.length needle in
       let rec go i =
         i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
       in
       go 0
     in
     contains "\"provenance\"" json && contains "{R0,R1,R2}" json)

let test_recorder_slowest () =
  let r = Obs.Recorder.create ~capacity:8 () in
  List.iter
    (fun (fp, w) -> rec_record ~wall_s:w r fp)
    [ ("a", 0.02); ("b", 0.08); ("c", 0.04); ("d", 0.08) ];
  Alcotest.(check (list string))
    "slowest first, ties by arrival"
    [ "b"; "d"; "c" ]
    (List.map
       (fun q -> q.Obs.Recorder.fingerprint)
       (Obs.Recorder.slowest r 3))

(* ------------------------------------------------------------------ *)
(* Export registry: rendering is deterministic — two registries fed
   the same series in different orders produce byte-identical
   Prometheus and JSON documents.                                     *)

let feed_registry order =
  let tel = Obs.Export.create () in
  let series =
    [
      ("joinopt_tier_latency_seconds", [ ("tier", "exact") ], 5_000);
      ("joinopt_tier_latency_seconds", [ ("tier", "greedy") ], 200);
      ("joinopt_optimize_latency_seconds", [ ("algo", "dphyp") ], 77_000);
    ]
  in
  let series = if order then series else List.rev series in
  List.iter
    (fun (name, labels, v) -> Obs.Export.observe tel ~labels name v)
    series;
  let counters =
    [ ("joinopt_plan_cache_requests_total", [ ("outcome", "hit") ], 3);
      ("joinopt_plan_cache_requests_total", [ ("outcome", "miss") ], 1) ]
  in
  let counters = if order then counters else List.rev counters in
  List.iter
    (fun (name, labels, v) -> Obs.Export.set_counter tel ~labels name v)
    counters;
  Obs.Export.set_gauge tel "joinopt_plan_cache_capacity" 16.0;
  tel

let test_export_deterministic () =
  let a = feed_registry true and b = feed_registry false in
  Alcotest.(check string) "prometheus is registration-order independent"
    (Obs.Export.prometheus a) (Obs.Export.prometheus b);
  Alcotest.(check string) "json is registration-order independent"
    (Obs.Export.to_json a) (Obs.Export.to_json b)

let test_export_prometheus_shape () =
  let p = Obs.Export.prometheus (feed_registry true) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %s" sub) true
        (contains p sub))
    [
      "# TYPE joinopt_optimize_latency_seconds histogram";
      "# TYPE joinopt_plan_cache_requests_total counter";
      "# TYPE joinopt_plan_cache_capacity gauge";
      {|joinopt_tier_latency_seconds_bucket{tier="exact",le="+Inf"}|};
      {|joinopt_tier_latency_seconds_count{tier="greedy"} 1|};
      {|joinopt_plan_cache_requests_total{outcome="hit"} 3|};
    ];
  Alcotest.(check bool) "no NaN in exposition" false
    (contains (String.lowercase_ascii p) "nan")

(* incr_counter from two domains: the counter is one Atomic.t, so no
   increment may be lost. *)
let test_export_counter_two_domains () =
  let tel = Obs.Export.create () in
  let n = 10_000 in
  let bump () =
    for _ = 1 to n do
      Obs.Export.incr_counter tel
        ~labels:[ ("outcome", "hit") ]
        "joinopt_plan_cache_requests_total"
    done
  in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  Alcotest.(check int) "every increment counted" (2 * n)
    (Atomic.get
       (Obs.Export.counter tel
          ~labels:[ ("outcome", "hit") ]
          "joinopt_plan_cache_requests_total"))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "jsonl flushes per span" `Quick
            test_jsonl_flushes_per_span;
          Alcotest.test_case "close closes the channel" `Quick
            test_close_closes_channel;
          Alcotest.test_case "memory sink: two-domain emit" `Quick
            test_memory_concurrent_emit;
          Alcotest.test_case "jsonl sink: two-domain emit" `Quick
            test_jsonl_concurrent_emit;
        ] );
      ( "cache counters",
        [
          Alcotest.test_case "two-domain hammer conserves counters" `Quick
            test_cache_counter_hammer;
        ] );
      ( "json escaping",
        [
          Alcotest.test_case "span_to_json escapes hostile strings" `Quick
            test_span_json_escaping;
          Alcotest.test_case "span_to_json sorts attrs" `Quick
            test_span_json_attrs_sorted;
          Alcotest.test_case "chrome trace escapes hostile strings" `Quick
            test_chrome_json_escaping;
          Alcotest.test_case "metrics span order deterministic" `Quick
            test_metrics_span_order_deterministic;
        ] );
      ( "histogram",
        [
          q qcheck_quantile_bound;
          q qcheck_count_le_model;
          q qcheck_merge_identity;
          Alcotest.test_case "two-domain recording conserves" `Quick
            test_histogram_two_domain_conservation;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring stays bounded" `Quick
            test_recorder_ring_bounded;
          Alcotest.test_case "slow requests keep spans" `Quick
            test_recorder_promotion;
          Alcotest.test_case "slow requests keep provenance" `Quick
            test_recorder_provenance_promotion;
          Alcotest.test_case "slowest-k ordering" `Quick
            test_recorder_slowest;
        ] );
      ( "export",
        [
          Alcotest.test_case "rendering order-independent" `Quick
            test_export_deterministic;
          Alcotest.test_case "prometheus exposition shape" `Quick
            test_export_prometheus_shape;
          Alcotest.test_case "two-domain counter conservation" `Quick
            test_export_counter_two_domains;
        ] );
    ]
