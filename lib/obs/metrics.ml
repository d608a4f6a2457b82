type counters = {
  pairs_considered : int;
  ccp_emitted : int;
  cost_calls : int;
  filter_rejected : int;
  neighborhood_calls : int;
  budget_limit : int option;
  budget_remaining : int option;
}

type tier_attempt = { tier : string; completed : bool; pairs : int }

type quality = {
  q_tier : string;
  est_cout : float;
  measured_cout : float;
  exact_cout : float option;
  delta : float option;
}

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_coalesced : int;
  cache_evictions : int;
  cache_entries : int;
  cache_capacity : int;
}

type profile = {
  spans : Sink.span list;
  total_s : float;
  counters : counters option;
  dp_entries : int;
  tiers : tier_attempt list;
  winning_tier : string option;
  quality : quality option;
  cache : cache_stats option;
  provenance : (string * float) list;
}

let make ?counters ?(dp_entries = 0) ?(tiers = []) ?winning_tier ?quality
    ?cache ?(provenance = []) ~total_s spans =
  (* Sort with a total tie-break (start, depth, name): concurrent
     spans can share a start timestamp, and golden/--stable diffs need
     byte-stable ordering however the scheduler interleaved them. *)
  let spans =
    List.stable_sort
      (fun (a : Sink.span) (b : Sink.span) ->
        match compare a.start_s b.start_s with
        | 0 -> (
            match compare a.depth b.depth with
            | 0 -> String.compare a.name b.name
            | c -> c)
        | c -> c)
      spans
  in
  {
    spans; total_s; counters; dp_entries; tiers; winning_tier; quality; cache;
    provenance;
  }

let with_quality p q = { p with quality = Some q }

let with_cache p c = { p with cache = Some c }

let with_provenance p prov = { p with provenance = prov }

(* ---------- the explain table ---------- *)

let attr_int (s : Sink.span) key =
  match List.assoc_opt key s.attrs with
  | Some (Sink.Int i) -> Some i
  | _ -> None

let pp_table ppf p =
  let num s k =
    match attr_int s k with Some i -> string_of_int i | None -> "-"
  in
  Format.fprintf ppf "%-36s %10s %12s %10s %10s %9s@." "phase" "ms"
    "minor-words" "pairs" "ccp" "rejected";
  Format.fprintf ppf "%s@." (String.make 93 '-');
  List.iter
    (fun (s : Sink.span) ->
      let label = String.make (2 * s.depth) ' ' ^ s.name in
      Format.fprintf ppf "%-36s %10.3f %12.0f %10s %10s %9s@." label
        (s.dur_s *. 1e3) s.minor_words (num s "pairs") (num s "ccp")
        (num s "filter_rejected"))
    p.spans;
  let covered =
    List.fold_left
      (fun acc (s : Sink.span) -> if s.depth = 0 then acc +. s.dur_s else acc)
      0.0 p.spans
  in
  Format.fprintf ppf "total: %.3f ms  (top-level phases cover %.1f%%)@."
    (p.total_s *. 1e3)
    (if p.total_s > 0.0 then 100.0 *. covered /. p.total_s else 100.0);
  (match p.counters with
  | Some c ->
      Format.fprintf ppf "counters: %a@." Export.pp_kvs
        [
          Export.kv_int "pairs" c.pairs_considered;
          Export.kv_int "ccp" c.ccp_emitted;
          Export.kv_int "cost-calls" c.cost_calls;
          Export.kv_int "filtered" c.filter_rejected;
          Export.kv_int "neighborhoods" c.neighborhood_calls;
          Export.kv "budget"
            (match c.budget_limit with
            | Some b -> string_of_int b
            | None -> "unlimited");
          Export.kv "remaining"
            (match c.budget_remaining with
            | Some r -> string_of_int r
            | None -> "unlimited");
        ]
  | None -> ());
  (match p.tiers with
  | [] -> ()
  | tiers ->
      Format.fprintf ppf "tier attempts: %s@."
        (String.concat " -> "
           (List.map
              (fun t ->
                Printf.sprintf "%s(%d pairs%s)" t.tier t.pairs
                  (if t.completed then "" else ", budget ran out"))
              tiers)));
  (match p.winning_tier with
  | Some t -> Format.fprintf ppf "winning tier: %s@." t
  | None -> ());
  (match p.quality with
  | Some q ->
      Format.fprintf ppf
        "plan quality (%s): measured C_out %.4g (est %.4g)%s@." q.q_tier
        q.measured_cout q.est_cout
        (match q.exact_cout, q.delta with
        | Some e, Some d ->
            Printf.sprintf "  vs exact plan %.4g = %.2fx" e d
        | _ -> "")
  | None -> ());
  (match p.cache with
  | Some c ->
      Format.fprintf ppf "plan cache: %a@." Export.pp_kvs
        [
          Export.kv_int "hits" c.cache_hits;
          Export.kv_int "misses" c.cache_misses;
          Export.kv_int "coalesced" c.cache_coalesced;
          Export.kv_int "evictions" c.cache_evictions;
          Export.kv_ratio "entries" c.cache_entries c.cache_capacity;
        ]
  | None -> ());
  (match p.provenance with
  | [] -> ()
  | prov ->
      Format.fprintf ppf "costliest subsets: %a@." Export.pp_kvs
        (List.map
           (fun (label, cost) ->
             Export.kv label (Printf.sprintf "%.4g" cost))
           prov));
  Format.fprintf ppf "dp entries: %d@." p.dp_entries
