(* Serving telemetry: a process-wide metric registry plus the two
   export formats (Prometheus text exposition and the obs_telemetry/v1
   JSON snapshot) and the shared human formatting every subcommand
   reports through.

   The registry is deliberately small and boring: assoc lists of
   (metric name, sorted labels) -> instrument, guarded by one mutex
   under which every sample is recorded too.  Lookups allocate a tiny
   key and scan a list of at most a few dozen series — nanoseconds
   next to the optimizations being measured.  Snapshots sort every
   series by (name, labels), so two registries populated in different
   orders render byte-identical documents. *)

type series = string * (string * string) list

type t = {
  lock : Mutex.t;
  mutable hists : (series * Histogram.t) list;
  mutable counters : (series * int ref) list;
  mutable gauges : (series * float ref) list;
  mutable help : (string * string) list; (* metric name -> HELP text *)
  recorder : Recorder.t;
}

let create ?slow_s () =
  {
    lock = Mutex.create ();
    hists = [];
    counters = [];
    gauges = [];
    help = [];
    recorder = Recorder.create ?slow_s ~capacity:256 ();
  }

let recorder t = t.recorder

let sort_labels ls =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) ls

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let note_help t name = function
  | None -> ()
  | Some h ->
      if not (List.mem_assoc name t.help) then t.help <- (name, h) :: t.help

(* The series [name]{labels} of [series] (created by [make] when new)
   and the possibly extended list. *)
let find_or_add series ~labels name make =
  let key = (name, sort_labels labels) in
  match List.assoc_opt key series with
  | Some x -> (x, series)
  | None ->
      let x = make () in
      (x, (key, x) :: series)

let observe t ?help ?(labels = []) name v =
  locked t (fun () ->
      note_help t name help;
      let h, hists = find_or_add t.hists ~labels name Histogram.create in
      t.hists <- hists;
      Histogram.record h v)

let observe_s t ?help ?labels name seconds =
  observe t ?help ?labels name (int_of_float (seconds *. 1e9))

let set_counter t ?help ?(labels = []) name v =
  locked t (fun () ->
      note_help t name help;
      let c, counters = find_or_add t.counters ~labels name (fun () -> ref 0) in
      t.counters <- counters;
      c := v)

let set_gauge t ?help ?(labels = []) name v =
  locked t (fun () ->
      note_help t name help;
      let g, gauges = find_or_add t.gauges ~labels name (fun () -> ref 0.0) in
      t.gauges <- gauges;
      g := v)

(* ---------- shared "k=v" formatting (Counters.pp, Plan_cache.pp_stats
   and the stats subcommand render through these, so the same numbers
   can never print differently in different subcommands) ---------- *)

let kv k v = (k, v)

let kv_int k v = (k, string_of_int v)

let kv_ratio k a b = (k, Printf.sprintf "%d/%d" a b)

let pp_kvs ppf kvs =
  Format.fprintf ppf "%s"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs))

let hit_ratio ~hits ~coalesced ~misses =
  let served = hits + coalesced + misses in
  if served = 0 then 0.0
  else float_of_int (hits + coalesced) /. float_of_int served

(* ---------- consistent snapshot ---------- *)

type snap = {
  s_hists : (series * Histogram.snapshot) list;
  s_counters : (series * int) list;
  s_gauges : (series * float) list;
  s_help : (string * string) list;
}

let compare_series ((an, al) : series) ((bn, bl) : series) =
  match String.compare an bn with 0 -> compare al bl | c -> c

let snap t =
  locked t (fun () ->
      {
        s_hists =
          List.sort
            (fun (a, _) (b, _) -> compare_series a b)
            (List.map (fun (k, h) -> (k, Histogram.snapshot h)) t.hists);
        s_counters =
          List.sort
            (fun (a, _) (b, _) -> compare_series a b)
            (List.map (fun (k, c) -> (k, !c)) t.counters);
        s_gauges =
          List.sort
            (fun (a, _) (b, _) -> compare_series a b)
            (List.map (fun (k, g) -> (k, !g)) t.gauges);
        s_help = t.help;
      })

(* ---------- Prometheus text exposition ---------- *)

(* Label values escape backslash, double-quote and newline (the
   exposition-format rules, which differ from JSON's). *)
let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) ls)
      ^ "}"

(* A finite decimal rendering that can never say "nan" or "inf": the
   inputs are integer counts and sums of clamped integers. *)
let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9f" f

(* The export bucket ladder, in seconds.  Cumulative counts come from
   Histogram.count_le on the ns grid, so the ladder is decoupled from
   the internal log-linear buckets (and stays small enough for a
   scrape). *)
let le_ladder =
  [
    ("0.00001", 10_000); ("0.000025", 25_000); ("0.00005", 50_000);
    ("0.0001", 100_000); ("0.00025", 250_000); ("0.0005", 500_000);
    ("0.001", 1_000_000); ("0.0025", 2_500_000); ("0.005", 5_000_000);
    ("0.01", 10_000_000); ("0.025", 25_000_000); ("0.05", 50_000_000);
    ("0.1", 100_000_000); ("0.25", 250_000_000); ("0.5", 500_000_000);
    ("1", 1_000_000_000); ("2.5", 2_500_000_000); ("5", 5_000_000_000);
    ("10", 10_000_000_000);
  ]

let metric_names snap =
  List.sort_uniq String.compare
    (List.map (fun ((n, _), _) -> n) snap.s_hists
    @ List.map (fun ((n, _), _) -> n) snap.s_counters
    @ List.map (fun ((n, _), _) -> n) snap.s_gauges)

let prometheus_of_snap s =
  let b = Buffer.create 4096 in
  let header name kind =
    let help =
      match List.assoc_opt name s.s_help with
      | Some h -> h
      | None -> "(no help registered)"
    in
    Printf.bprintf b "# HELP %s %s\n" name (prom_escape help);
    Printf.bprintf b "# TYPE %s %s\n" name kind
  in
  List.iter
    (fun name ->
      let hists = List.filter (fun ((n, _), _) -> n = name) s.s_hists in
      let counters = List.filter (fun ((n, _), _) -> n = name) s.s_counters in
      let gauges = List.filter (fun ((n, _), _) -> n = name) s.s_gauges in
      if hists <> [] then begin
        header name "histogram";
        List.iter
          (fun ((_, labels), h) ->
            List.iter
              (fun (le, ns) ->
                Printf.bprintf b "%s_bucket%s %d\n" name
                  (prom_labels (labels @ [ ("le", le) ]))
                  (Histogram.count_le h ns))
              le_ladder;
            Printf.bprintf b "%s_bucket%s %d\n" name
              (prom_labels (labels @ [ ("le", "+Inf") ]))
              (Histogram.count h);
            Printf.bprintf b "%s_sum%s %s\n" name (prom_labels labels)
              (prom_float (float_of_int (Histogram.sum h) /. 1e9));
            Printf.bprintf b "%s_count%s %d\n" name (prom_labels labels)
              (Histogram.count h))
          hists
      end;
      if counters <> [] then begin
        header name "counter";
        List.iter
          (fun ((_, labels), v) ->
            Printf.bprintf b "%s%s %d\n" name (prom_labels labels) v)
          counters
      end;
      if gauges <> [] then begin
        header name "gauge";
        List.iter
          (fun ((_, labels), v) ->
            Printf.bprintf b "%s%s %s\n" name (prom_labels labels)
              (prom_float v))
          gauges
      end)
    (metric_names s);
  Buffer.contents b

let prometheus t = prometheus_of_snap (snap t)

(* ---------- obs_telemetry/v1 JSON ---------- *)

let ms_of_ns ns = float_of_int ns /. 1e6

let json_labels labels =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Json_util.quote k ^ ": " ^ Json_util.quote v)
         labels)
  ^ "}"

let json_opt_str = function
  | None -> "null"
  | Some s -> Json_util.quote s

(* One flight-recorder request: the object [to_json] embeds in its
   [slow_requests] array. *)
let request_json (r : Recorder.request) =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "{\"seq\": %d, \"fingerprint\": %s, \"relations\": %d, \"algo\": %s, \
     \"tier\": %s, \"cache\": %s, \"pairs\": %d, \"ms\": %.4f, \
     \"minor_words\": %.0f, \"major_words\": %.0f, \"spans\": ["
    r.Recorder.seq
    (Json_util.quote r.Recorder.fingerprint)
    r.Recorder.relations
    (Json_util.quote r.Recorder.algo)
    (json_opt_str r.Recorder.tier)
    (json_opt_str r.Recorder.cache)
    r.Recorder.pairs
    (r.Recorder.wall_s *. 1e3)
    r.Recorder.minor_words r.Recorder.major_words;
  Buffer.add_string b
    (String.concat ", " (List.map Span.span_to_json r.Recorder.spans));
  Buffer.add_string b "]}";
  Buffer.contents b

let to_json ?(top = 5) t =
  let s = snap t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"obs_telemetry/v1\",\n";
  Buffer.add_string b "  \"histograms\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun ((name, labels), h) ->
            Printf.sprintf
              "    {\"name\": %s, \"labels\": %s, \"count\": %d, \
               \"mean_ms\": %.4f, \"min_ms\": %.4f, \"p50_ms\": %.4f, \
               \"p95_ms\": %.4f, \"p99_ms\": %.4f, \"p999_ms\": %.4f, \
               \"max_ms\": %.4f}"
              (Json_util.quote name) (json_labels labels) (Histogram.count h)
              (Histogram.mean h /. 1e6)
              (ms_of_ns (Histogram.min_recorded h))
              (ms_of_ns (Histogram.quantile h 0.5))
              (ms_of_ns (Histogram.quantile h 0.95))
              (ms_of_ns (Histogram.quantile h 0.99))
              (ms_of_ns (Histogram.quantile h 0.999))
              (ms_of_ns (Histogram.max_recorded h)))
          s.s_hists));
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"counters\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun ((name, labels), v) ->
            Printf.sprintf "    {\"name\": %s, \"labels\": %s, \"value\": %d}"
              (Json_util.quote name) (json_labels labels) v)
          s.s_counters));
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"gauges\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun ((name, labels), v) ->
            Printf.sprintf "    {\"name\": %s, \"labels\": %s, \"value\": %s}"
              (Json_util.quote name) (json_labels labels) (prom_float v))
          s.s_gauges));
  Buffer.add_string b "\n  ],\n";
  Printf.bprintf b "  \"requests_recorded\": %d,\n"
    (Recorder.recorded t.recorder);
  Printf.bprintf b "  \"slow_threshold_ms\": %.1f,\n"
    (Recorder.slow_threshold_s t.recorder *. 1e3);
  Buffer.add_string b "  \"slow_requests\": [\n";
  Buffer.add_string b
    (String.concat ",\n"
       (List.map
          (fun r -> "    " ^ request_json r)
          (Recorder.slowest t.recorder top)));
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* ---------- the human table behind `joinopt stats` ---------- *)

let print_stats ?(top = 5) ppf t =
  let s = snap t in
  Format.fprintf ppf "%-52s %8s %9s %9s %9s %9s %9s@." "latency (ms)" "count"
    "mean" "p50" "p95" "p99" "max";
  Format.fprintf ppf "%s@." (String.make 110 '-');
  List.iter
    (fun ((name, labels), h) ->
      Format.fprintf ppf "%-52s %8d %9.3f %9.3f %9.3f %9.3f %9.3f@."
        (name ^ prom_labels labels)
        (Histogram.count h)
        (Histogram.mean h /. 1e6)
        (ms_of_ns (Histogram.quantile h 0.5))
        (ms_of_ns (Histogram.quantile h 0.95))
        (ms_of_ns (Histogram.quantile h 0.99))
        (ms_of_ns (Histogram.max_recorded h)))
    s.s_hists;
  if s.s_counters <> [] then begin
    Format.fprintf ppf "@.counters:@.";
    List.iter
      (fun ((name, labels), v) ->
        Format.fprintf ppf "  %-58s %12d@." (name ^ prom_labels labels) v)
      s.s_counters
  end;
  if s.s_gauges <> [] then begin
    Format.fprintf ppf "@.gauges:@.";
    List.iter
      (fun ((name, labels), v) ->
        Format.fprintf ppf "  %-58s %12s@."
          (name ^ prom_labels labels)
          (prom_float v))
      s.s_gauges
  end;
  (* cache ratio line, when the driver exported cache counters *)
  let outcome o =
    List.fold_left
      (fun acc ((name, labels), v) ->
        if
          name = "joinopt_plan_cache_requests_total"
          && List.assoc_opt "outcome" labels = Some o
        then acc + v
        else acc)
      0 s.s_counters
  in
  let hits = outcome "hit"
  and misses = outcome "miss"
  and coalesced = outcome "coalesced" in
  if hits + misses + coalesced > 0 then begin
    Format.fprintf ppf "@.plan cache: ";
    pp_kvs ppf
      [
        kv_int "hits" hits; kv_int "misses" misses;
        kv_int "coalesced" coalesced;
        kv "hit_ratio"
          (Printf.sprintf "%.4f" (hit_ratio ~hits ~coalesced ~misses));
      ];
    Format.fprintf ppf "@."
  end;
  let slow = Recorder.slowest t.recorder top in
  if slow <> [] then begin
    Format.fprintf ppf
      "@.top %d slowest requests (of %d recorded, slow threshold %.0f ms):@."
      (List.length slow)
      (Recorder.recorded t.recorder)
      (Recorder.slow_threshold_s t.recorder *. 1e3);
    Format.fprintf ppf "%6s %18s %4s %-10s %-12s %-10s %10s %10s %6s@." "seq"
      "fingerprint" "n" "algo" "tier" "cache" "pairs" "ms" "spans";
    List.iter
      (fun (r : Recorder.request) ->
        Format.fprintf ppf "%6d %18s %4d %-10s %-12s %-10s %10d %10.3f %6d@."
          r.Recorder.seq r.Recorder.fingerprint r.Recorder.relations
          r.Recorder.algo
          (Option.value r.Recorder.tier ~default:"-")
          (Option.value r.Recorder.cache ~default:"-")
          r.Recorder.pairs
          (r.Recorder.wall_s *. 1e3)
          (List.length r.Recorder.spans))
      slow
  end
