(* Benchmark driver.

   Usage:
     dune exec bench/main.exe                 run every experiment
     dune exec bench/main.exe -- fig5b fig8a  run selected experiments
     dune exec bench/main.exe -- --quick      trim the slowest points
     dune exec bench/main.exe -- --csv DIR    additionally write each table
                                              as DIR/<experiment>.csv

   Experiment names: table1 fig5a fig5b table2 fig6a fig6b fig7 fig8a
   fig8b ccp xchain xclique xgen xgoo xtopdown xtpch xmem xcdc xqual
   xspace xadaptive xlarge. *)

let run_experiments ~quick names =
  let todo =
    match names with
    | [] -> Experiments.all_experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n Experiments.all_experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" n
                  (String.concat ", "
                     (List.map fst Experiments.all_experiments));
                exit 2)
          names
  in
  Printf.printf
    "DPhyp reproduction benchmarks (%s mode)\n\
     Shapes to compare with the paper: who wins, by what factor, where the \
     curves cross.\n"
    (if quick then "quick" else "full");
  List.iter (fun (_, f) -> f ~quick ()) todo

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let rec csv = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> csv rest
    | [] -> None
  in
  Bench_util.csv_dir := csv args;
  let rec positional = function
    | "--csv" :: _ :: rest | "--quick" :: rest -> positional rest
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        Printf.eprintf "unknown flag %S; known: --quick, --csv DIR\n" a;
        exit 2
    | a :: rest -> a :: positional rest
    | [] -> []
  in
  let names = positional args in
  run_experiments ~quick names
