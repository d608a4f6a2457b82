type algorithm =
  | Dphyp
  | Dpsize
  | Dpsub
  | Dpccp
  | Goo
  | Topdown
  | Tdpart
  | Idp of { k : int }
  | Partition of { k : int }
  | Adaptive
  | Dpconv of Dpconv.objective

let all =
  [ Dphyp; Dpsize; Dpsub; Dpccp; Goo; Topdown; Tdpart;
    Idp { k = Idp.default_k }; Partition { k = Partition.default_stitch_k };
    Adaptive; Dpconv Dpconv.Cmax ]

let name = function
  | Dphyp -> "dphyp"
  | Dpsize -> "dpsize"
  | Dpsub -> "dpsub"
  | Dpccp -> "dpccp"
  | Goo -> "goo"
  | Topdown -> "topdown"
  | Tdpart -> "tdpart"
  | Idp _ -> "idp"
  | Partition _ -> "partition"
  | Adaptive -> "adaptive"
  | Dpconv _ -> "dpconv"

let of_name s = List.find_opt (fun a -> name a = s) all

let exact = function
  | Dphyp | Dpsize | Dpsub | Dpccp | Topdown | Tdpart -> true
  | Goo | Idp _ | Partition _ | Adaptive | Dpconv _ -> false

type result = {
  plan : Plans.Plan.t option;
  counters : Counters.t;
  dp_entries : int;
  tier : Adaptive.tier option;
  attempts : Adaptive.attempt list;
}

let run ?obs ?model ?filter ?budget algo g =
  (match (algo, filter) with
  | Dphyp, _ | _, None -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Optimizer.run: %s does not support a validity filter"
           (name algo)));
  let counters = Counters.create ?budget () in
  let with_table (dp, plan) =
    { plan; counters; dp_entries = Plans.Dp_table.size dp; tier = None;
      attempts = [] }
  and plan_only plan =
    { plan; counters; dp_entries = 0; tier = None; attempts = [] }
  in
  let enumerate () =
    match algo with
    | Dphyp -> with_table (Dphyp.solve_with_table ?model ?filter ~counters g)
    | Dpsize -> with_table (Dpsize.solve_with_table ?model ~counters g)
    | Dpsub -> with_table (Dpsub.solve_with_table ?model ~counters g)
    | Dpccp -> with_table (Dpccp.solve_with_table ?model ~counters g)
    | Goo -> plan_only (Goo.solve ?model ~counters g)
    | Topdown -> plan_only (Top_down.solve ?model ~counters g)
    | Tdpart -> plan_only (Top_down_partition.solve ?model ~counters g)
    | Idp { k } -> plan_only (Idp.solve ?obs ?model ~counters ~k g)
    | Partition { k } -> plan_only (Partition.solve ?obs ?model ~counters ~k g)
    | Adaptive ->
        let o = Adaptive.solve ?obs ?model ?budget g in
        {
          plan = o.Adaptive.plan;
          counters = o.Adaptive.counters;
          dp_entries = o.Adaptive.dp_entries;
          tier = Some o.Adaptive.tier;
          attempts = o.Adaptive.attempts;
        }
    | Dpconv objective ->
        let o = Dpconv.solve ?model ~objective ~counters g in
        with_table (o.Dpconv.dp, o.Dpconv.plan)
  in
  match obs with
  | None -> enumerate ()
  | Some ctx ->
      Obs.Span.with_ ctx ("enumerate:" ^ name algo) (fun sp ->
          let r = enumerate () in
          let set key v = Obs.Span.set sp key (Obs.Span.Int v) in
          set "pairs" r.counters.Counters.pairs_considered;
          set "ccp" r.counters.Counters.ccp_emitted;
          set "cost_calls" r.counters.Counters.cost_calls;
          set "filter_rejected" r.counters.Counters.filter_rejected;
          set "neighborhoods" r.counters.Counters.neighborhood_calls;
          set "dp_entries" r.dp_entries;
          r)

let plan_source algo tier =
  match tier with
  | Some t -> name algo ^ ":" ^ Adaptive.tier_name t
  | None -> name algo
