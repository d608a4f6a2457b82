let sort spans =
  List.stable_sort
    (fun (a : Span.span) (b : Span.span) ->
      match compare a.start_s b.start_s with
      | 0 -> (
          match compare a.depth b.depth with
          | 0 -> String.compare a.name b.name
          | c -> c)
      | c -> c)
    spans

let attr_int (s : Span.span) key =
  match List.assoc_opt key s.attrs with
  | Some (Span.Int i) -> Some i
  | _ -> None

let pp_table ppf ctx =
  let spans = sort (Span.spans ctx) and total_s = Span.elapsed ctx in
  let num s k =
    match attr_int s k with Some i -> string_of_int i | None -> "-"
  in
  Format.fprintf ppf "%-36s %10s %12s %12s %10s %10s %9s@." "phase" "ms"
    "minor-words" "major-words" "pairs" "ccp" "rejected";
  Format.fprintf ppf "%s@." (String.make 106 '-');
  List.iter
    (fun (s : Span.span) ->
      let label = String.make (2 * s.depth) ' ' ^ s.name in
      Format.fprintf ppf "%-36s %10.3f %12.0f %12.0f %10s %10s %9s@." label
        (s.dur_s *. 1e3) s.minor_words s.major_words (num s "pairs")
        (num s "ccp") (num s "filter_rejected"))
    spans;
  let covered =
    List.fold_left
      (fun acc (s : Span.span) -> if s.depth = 0 then acc +. s.dur_s else acc)
      0.0 spans
  in
  Format.fprintf ppf "total: %.3f ms  (top-level phases cover %.1f%%)@."
    (total_s *. 1e3)
    (if total_s > 0.0 then 100.0 *. covered /. total_s else 100.0)
