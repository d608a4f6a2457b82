(* Shared benchmark plumbing: adaptive wall-clock timing and table
   rendering.  Times below ~50 ms are measured by repetition; longer
   runs are measured once (their variance is irrelevant next to the
   orders-of-magnitude differences the paper reports).  All timing
   goes through Obs.Span — the same clock the pipeline profiles
   report from — so bench numbers and profile spans are directly
   comparable. *)

let now = Obs.Span.now

(* Adaptive timing: one trial run (measured as an Obs span); if fast,
   repeat until ~80 ms of total work and average.  Returns
   (milliseconds, result of last run). *)
let time_ms f =
  let ctx = Obs.Span.create () in
  let r = ref (Obs.Span.with_ ctx "trial" (fun _ -> f ())) in
  let first =
    match Obs.Span.spans ctx with
    | [ s ] -> s.Obs.Span.dur_s
    | _ -> assert false
  in
  if first > 0.05 then (first *. 1000.0, !r)
  else begin
    let reps = max 3 (int_of_float (0.08 /. Float.max 1e-6 first)) in
    let t0 = now () in
    for _ = 1 to reps do
      r := f ()
    done;
    let per = (now () -. t0) /. float_of_int reps in
    (per *. 1000.0, !r)
  end

let fmt_ms ms =
  if ms < 0.01 then Printf.sprintf "%.4f" ms
  else if ms < 1.0 then Printf.sprintf "%.3f" ms
  else if ms < 100.0 then Printf.sprintf "%.2f" ms
  else Printf.sprintf "%.0f" ms

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
  ms : float;
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
