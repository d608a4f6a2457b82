(* Benchmark driver.

   Usage:
     dune exec bench/main.exe                 run every experiment
     dune exec bench/main.exe -- fig5b fig8a  run selected experiments
     dune exec bench/main.exe -- --quick      trim the slowest points
     dune exec bench/main.exe -- --bechamel   Bechamel micro-benchmarks
                                              (one Test.make per table/figure)
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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: representative (smaller) instances of
   each table/figure, one Test.make per experiment.                    *)

let bechamel_tests () =
  let open Bechamel in
  let opt algo g () = ignore (Core.Optimizer.run algo g) in
  let cycle8_h0 = List.hd (Workloads.Splits.cycle_based 8) in
  let cycle8_last = List.nth (Workloads.Splits.cycle_based 8) 3 in
  let star8_h0 = List.hd (Workloads.Splits.star_based 8) in
  let star8_last = List.nth (Workloads.Splits.star_based 8) 3 in
  let star10 = Workloads.Shapes.star 9 in
  let fig8a_graph k =
    let tree = Workloads.Noninner.star_antijoins ~n_rel:12 ~k () in
    Conflicts.Derive.hypergraph
      (Conflicts.Analysis.analyze ~conservative:true tree)
  in
  let fig8b_graph k =
    let tree = Workloads.Noninner.cycle_outerjoins ~n_rel:12 ~k () in
    Conflicts.Derive.hypergraph
      (Conflicts.Analysis.analyze ~conservative:true tree)
  in
  [
    Test.make ~name:"table1-dphyp-cycle4"
      (Staged.stage (opt Core.Optimizer.Dphyp (List.hd (Workloads.Splits.cycle_based 4))));
    Test.make ~name:"fig5-dphyp-cycle8-split0"
      (Staged.stage (opt Core.Optimizer.Dphyp cycle8_h0));
    Test.make ~name:"fig5-dpsize-cycle8-split0"
      (Staged.stage (opt Core.Optimizer.Dpsize cycle8_h0));
    Test.make ~name:"fig5-dpsub-cycle8-split0"
      (Staged.stage (opt Core.Optimizer.Dpsub cycle8_h0));
    Test.make ~name:"fig5-dphyp-cycle8-split3"
      (Staged.stage (opt Core.Optimizer.Dphyp cycle8_last));
    Test.make ~name:"table2-dphyp-star4"
      (Staged.stage (opt Core.Optimizer.Dphyp (List.hd (Workloads.Splits.star_based 4))));
    Test.make ~name:"fig6-dphyp-star8-split0"
      (Staged.stage (opt Core.Optimizer.Dphyp star8_h0));
    Test.make ~name:"fig6-dpsize-star8-split0"
      (Staged.stage (opt Core.Optimizer.Dpsize star8_h0));
    Test.make ~name:"fig6-dphyp-star8-split3"
      (Staged.stage (opt Core.Optimizer.Dphyp star8_last));
    Test.make ~name:"fig7-dphyp-star10"
      (Staged.stage (opt Core.Optimizer.Dphyp star10));
    Test.make ~name:"fig7-dpsize-star10"
      (Staged.stage (opt Core.Optimizer.Dpsize star10));
    Test.make ~name:"fig7-dpsub-star10"
      (Staged.stage (opt Core.Optimizer.Dpsub star10));
    Test.make ~name:"fig8a-dphyp-anti6"
      (Staged.stage (opt Core.Optimizer.Dphyp (fig8a_graph 6)));
    Test.make ~name:"fig8a-dphyp-anti11"
      (Staged.stage (opt Core.Optimizer.Dphyp (fig8a_graph 11)));
    Test.make ~name:"fig8b-dphyp-outer6"
      (Staged.stage (opt Core.Optimizer.Dphyp (fig8b_graph 6)));
    Test.make ~name:"fig8b-dpsize-outer6"
      (Staged.stage (opt Core.Optimizer.Dpsize (fig8b_graph 6)));
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"paper" ~fmt:"%s-%s" (bechamel_tests ())
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\nBechamel micro-benchmarks (monotonic clock, ns/run)\n";
  Printf.printf "%-45s %18s %10s\n" "benchmark" "ns/run" "r^2";
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let est =
           match Analyze.OLS.estimates ols with
           | Some [ e ] -> Printf.sprintf "%18.1f" e
           | _ -> Printf.sprintf "%18s" "-"
         in
         let r2 =
           match Analyze.OLS.r_square ols with
           | Some r -> Printf.sprintf "%10.4f" r
           | None -> Printf.sprintf "%10s" "-"
         in
         Printf.printf "%-45s %s %s\n" name est r2)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let bechamel = List.mem "--bechamel" args in
  let rec csv = function
    | "--csv" :: dir :: _ -> Some dir
    | _ :: rest -> csv rest
    | [] -> None
  in
  Bench_util.csv_dir := csv args;
  let rec positional = function
    | "--csv" :: _ :: rest -> positional rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' -> a :: positional rest
    | _ :: rest -> positional rest
    | [] -> []
  in
  let names = positional args in
  if bechamel then run_bechamel () else run_experiments ~quick names
