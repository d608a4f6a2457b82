(* Shared benchmark plumbing: wall-clock timing with its spread, and
   table rendering.  A time is the median of five timed batches, each
   repeating the run until it spans ~16 ms (once for a slow run), with
   the batches' quartiles as its spread.  All timing reads
   Obs.Span.now — the clock the pipeline profiles report from — so
   bench numbers and profile spans are directly comparable. *)

let now = Obs.Span.now

(* Milliseconds per run: the median of the batches and their first and
   third quartiles. *)
type timing = { ms : float; q1 : float; q3 : float }

(* One trial run sizes the batches; then five timed batches, whose
   sorted per-run times give the median and quartiles by rank.
   Returns the timing and the result of the last run. *)
let time_ms f =
  let t0 = now () in
  let r = ref (f ()) in
  let first = now () -. t0 in
  let reps = max 1 (int_of_float (0.016 /. Float.max 1e-6 first)) in
  let per_run =
    Array.init 5 (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          r := f ()
        done;
        (now () -. t0) /. float_of_int reps *. 1000.0)
  in
  Array.sort Float.compare per_run;
  ({ ms = per_run.(2); q1 = per_run.(1); q3 = per_run.(3) }, !r)

let fmt_float ms =
  if ms < 0.01 then Printf.sprintf "%.4f" ms
  else if ms < 1.0 then Printf.sprintf "%.3f" ms
  else if ms < 100.0 then Printf.sprintf "%.2f" ms
  else Printf.sprintf "%.0f" ms

(* A time cell: the median ± half the interquartile range. *)
let fmt_ms t =
  Printf.sprintf "%s ±%s" (fmt_float t.ms) (fmt_float ((t.q3 -. t.q1) /. 2.))

let csv_dir : string option ref = ref None

let current_slug = ref "experiment"

let slugify s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '_')
    s

let header title =
  let cut = min 40 (String.length title) in
  current_slug := slugify (String.sub title 0 cut);
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_strings widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%*s" w c) widths cells)

let write_csv ~columns ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (!current_slug ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (String.concat "," columns ^ "\n");
          List.iter
            (fun r ->
              output_string oc
                (String.concat ","
                   (List.map (fun c -> String.trim c) r)
                ^ "\n"))
            rows)

let print_table ~columns ~rows =
  write_csv ~columns ~rows;
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length c) rows)
      columns
  in
  print_endline (row_strings widths columns);
  print_endline
    (row_strings widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (row_strings widths r)) rows;
  flush stdout

type measured = {
  ms : timing;
  ccp : int;
  pairs : int;
  cost : float;
  entries : int;
}

let measure ?model ?filter algo g =
  let ms, result =
    time_ms (fun () -> Core.Optimizer.run ?model ?filter algo g)
  in
  {
    ms;
    ccp = result.Core.Optimizer.counters.Core.Counters.ccp_emitted;
    pairs = result.Core.Optimizer.counters.Core.Counters.pairs_considered;
    cost =
      (match result.Core.Optimizer.plan with
      | Some p -> p.Plans.Plan.cost
      | None -> nan);
    entries = result.Core.Optimizer.dp_entries;
  }
