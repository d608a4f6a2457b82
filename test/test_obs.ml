(* Observability plumbing: span export, telemetry counters, JSON
   escaping, histograms, the flight recorder and the export
   registry. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let with_temp f =
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

(* The one span export: a pipeline run's collector written through
   [write_chrome] holds one "X" event per collected span, one per
   line, in completion order, each carrying the span's attributes as
   [args]. *)
let test_write_chrome_pipeline () =
  let obs = Obs.Span.create () in
  (match
     Driver.Pipeline.optimize_sql ~obs
       "SELECT * FROM a, b, c, d WHERE a.x = b.x AND b.y = c.y AND c.z = d.z"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let spans = Obs.Span.spans obs in
  Alcotest.(check bool) "an attributed span was collected" true
    (List.exists (fun (s : Obs.Span.span) -> s.attrs <> []) spans);
  with_temp (fun path ->
      Obs.Span.write_chrome path spans;
      let events = List.filter (fun l -> contains l {|"ph": "X"|}) (read_lines path) in
      Alcotest.(check int) "one event per span" (List.length spans)
        (List.length events);
      let json = function
        | Obs.Span.Int i -> string_of_int i
        | Float f -> Printf.sprintf "%.6g" f
        | Str s -> Obs.Json_util.quote s
        | Bool b -> string_of_bool b
      in
      List.iter2
        (fun (s : Obs.Span.span) ev ->
          Alcotest.(check bool)
            (Printf.sprintf "event names %s" s.name) true
            (String.starts_with ~prefix:
               (Printf.sprintf {|{"name": %s, "ph": "X"|}
                  (Obs.Json_util.quote s.name))
               ev);
          List.iter
            (fun (k, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s carries %s" s.name k) true
                (contains ev
                   (Printf.sprintf "%s: %s" (Obs.Json_util.quote k) (json v))))
            s.attrs)
        spans events)

(* Two domains hammering one plan cache: the atomic counters the
   Plan_cache.stats snapshot reads must conserve — every request is
   exactly one of hit / miss / coalesced, no increment may be lost to
   a data race, and with capacity above the key universe the misses
   are exactly the distinct keys. *)
let test_cache_counter_hammer () =
  let cache = Cache.Plan_cache.create ~capacity:64 in
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
    Obs.Span.name = "he said \"hi\"\\\npath\tend";
    depth = 0;
    start_s = 0.0;
    dur_s = 0.001;
    minor_words = 0.0;
    major_words = 0.0;
    attrs = [ ("zkey", Obs.Span.Str "v\"w"); ("akey", Obs.Span.Int 1) ];
  }

let has_raw_control s =
  String.exists (fun c -> Char.code c < 0x20) s

let test_span_json_escaping () =
  let j = Obs.Span.span_to_json hostile_span in
  Alcotest.(check bool) "no raw control characters" false
    (has_raw_control j);
  Alcotest.(check bool) "quotes escaped" true
    (contains j {|he said \"hi\"|});
  Alcotest.(check bool) "backslash escaped" true (contains j {|\"\\\n|});
  Alcotest.(check bool) "tab escaped" true (contains j {|\tend|});
  Alcotest.(check bool) "attr value escaped" true (contains j {|v\"w|})

let test_span_json_attrs_sorted () =
  let j = Obs.Span.span_to_json hostile_span in
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
  let j = Obs.Span.chrome_trace_json [ hostile_span ] in
  Alcotest.(check bool) "no raw tab" false (String.contains j '\t');
  Alcotest.(check bool) "quotes escaped" true
    (contains j {|he said \"hi\"|});
  Alcotest.(check bool) "newline in name escaped" true
    (contains j {|\"\\\npath|})

(* Metrics.sort orders spans chronologically with a deterministic
   (start, depth, name) tie-break: two permutations of the same span
   list must produce the same table rows. *)
let test_metrics_span_order_deterministic () =
  let sp name depth start_s =
    {
      Obs.Span.name;
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
      (fun (s : Obs.Span.span) -> s.name)
      (Obs.Metrics.sort l)
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

(* Two domains observing concurrently into one registry series: the
   registry records every sample under its lock, so after the join the
   series must account for every value exactly — count, exact sum,
   exact extrema.  A lost update shows up as a missing count. *)
let test_observe_two_domain_conservation () =
  let tel = Obs.Export.create () in
  let name = "joinopt_optimize_latency_seconds" and n = 20_000 in
  (* whole microseconds, so the millisecond extrema print exactly *)
  let record_range lo =
    for i = lo to lo + n - 1 do
      Obs.Export.observe tel name (i * 1000)
    done
  in
  let d = Domain.spawn (fun () -> record_range 1) in
  record_range (n + 1);
  Domain.join d;
  let p = Obs.Export.prometheus tel and j = Obs.Export.to_json tel in
  let has what sub = Alcotest.(check bool) what true (contains p sub || contains j sub) in
  has "every sample counted" (Printf.sprintf "%s_count %d\n" name (2 * n));
  has "exact sum"
    (Printf.sprintf "%s_sum %.9f\n" name
       (float_of_int (n * ((2 * n) + 1) * 1000) /. 1e9));
  has "exact min" {|"min_ms": 0.0010,|};
  has "exact max" (Printf.sprintf {|"max_ms": %.4f}|} (float_of_int (2 * n) /. 1e3))

(* ------------------------------------------------------------------ *)
(* GC words: a span reads the calling domain's exact counters.        *)

(* An array past the minor heap's size limit is allocated directly in
   the major heap; no collection runs, yet the span counts it. *)
let test_span_major_words () =
  let ctx = Obs.Span.create () in
  Obs.Span.with_ ctx "alloc" (fun _ ->
      ignore (Sys.opaque_identity (Array.make 10_000 0)));
  match Obs.Span.spans ctx with
  | [ s ] ->
      Alcotest.(check bool)
        (Printf.sprintf "major words %.0f >= 10000" s.major_words)
        true
        (s.major_words >= 10_000.0)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* What an empty span costs, measured around the whole call: the open
   handle, the closed record, their float boxes, one list cell and two
   [Gc.counters] readings of 10 words each — 49 words in the dev
   build.  A runtime-wide snapshot such as [Gc.quick_stat] in their
   place makes it 79. *)
let empty_span_words = 49.0

let test_span_empty_alloc () =
  let ctx = Obs.Span.create () in
  let once () = Obs.Span.with_ ctx "empty" (fun _ -> ()) in
  once ();
  let w0 = Gc.minor_words () in
  once ();
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %.0f" w empty_span_words)
    true (w <= empty_span_words)

(* A span around a known minor allocation reports that allocation, to
   within the span's own words: 10,000 list cells are 30,000 words.
   The minor field of [Gc.counters] read about an eighth of the words
   allocated since the last minor collection here. *)
let test_span_minor_words () =
  let ctx = Obs.Span.create () in
  let rec build acc k = if k = 0 then acc else build (k :: acc) (k - 1) in
  Obs.Span.with_ ctx "alloc" (fun _ ->
      ignore (Sys.opaque_identity (build [] 10_000)));
  match Obs.Span.spans ctx with
  | [ s ] ->
      Alcotest.(check bool)
        (Printf.sprintf "minor words %.0f = 30000 within %.0f" s.minor_words
           empty_span_words)
        true
        (Float.abs (s.minor_words -. 30_000.0) <= empty_span_words)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

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

(* set_counter from two domains, each creating and updating series of
   its own: every update goes through the registry lock, so no series
   may be lost when both domains add to the series list at once, and
   every series ends at its last value — the exposition's counter
   total is exactly the sum of the final values. *)
let test_export_counter_two_domains () =
  let tel = Obs.Export.create () in
  let name = "joinopt_plan_cache_requests_total" in
  let series = 2_000 and rounds = 3 in
  let ready = Atomic.make 0 in
  let bump who () =
    (* start together, so series creation overlaps *)
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for k = 0 to series - 1 do
      for v = 1 to rounds do
        Obs.Export.set_counter tel
          ~labels:[ ("outcome", Printf.sprintf "%s%d" who k) ]
          name v
      done
    done
  in
  let d = Domain.spawn (bump "a") in
  bump "b" ();
  Domain.join d;
  let lines =
    List.filter
      (fun l -> String.starts_with ~prefix:(name ^ "{") l)
      (String.split_on_char '\n' (Obs.Export.prometheus tel))
  in
  Alcotest.(check int) "every series present" (2 * series)
    (List.length lines);
  let total =
    List.fold_left
      (fun acc l ->
        let i = String.rindex l ' ' in
        acc + int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
      0 lines
  in
  Alcotest.(check int) "every series at its last value"
    (2 * series * rounds) total

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "span export",
        [
          Alcotest.test_case "write_chrome: one event per pipeline span"
            `Quick test_write_chrome_pipeline;
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
          Alcotest.test_case "two-domain recording conserves" `Quick
            test_observe_two_domain_conservation;
        ] );
      ( "gc words",
        [
          Alcotest.test_case "span counts direct major allocation" `Quick
            test_span_major_words;
          Alcotest.test_case "empty span allocation bounded" `Quick
            test_span_empty_alloc;
          Alcotest.test_case "span counts minor allocation" `Quick
            test_span_minor_words;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring stays bounded" `Quick
            test_recorder_ring_bounded;
          Alcotest.test_case "slow requests keep spans" `Quick
            test_recorder_promotion;
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
