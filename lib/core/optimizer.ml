type algorithm =
  | Dphyp
  | Dpsize
  | Dpsub
  | Dpccp
  | Goo
  | Topdown
  | Tdpart
  | Idp
  | Partition
  | Adaptive
  | Dpconv

let all =
  [ Dphyp; Dpsize; Dpsub; Dpccp; Goo; Topdown; Tdpart; Idp; Partition;
    Adaptive; Dpconv ]

let name = function
  | Dphyp -> "dphyp"
  | Dpsize -> "dpsize"
  | Dpsub -> "dpsub"
  | Dpccp -> "dpccp"
  | Goo -> "goo"
  | Topdown -> "topdown"
  | Tdpart -> "tdpart"
  | Idp -> "idp"
  | Partition -> "partition"
  | Adaptive -> "adaptive"
  | Dpconv -> "dpconv"

let of_name = function
  | "dphyp" -> Some Dphyp
  | "dpsize" -> Some Dpsize
  | "dpsub" -> Some Dpsub
  | "dpccp" -> Some Dpccp
  | "goo" -> Some Goo
  | "topdown" -> Some Topdown
  | "tdpart" -> Some Tdpart
  | "idp" -> Some Idp
  | "partition" -> Some Partition
  | "adaptive" -> Some Adaptive
  | "dpconv" -> Some Dpconv
  | _ -> None

let supports_filter = function
  | Dphyp | Dpsize | Dpsub -> true
  | Dpccp | Goo | Topdown | Tdpart | Idp | Partition | Adaptive | Dpconv ->
      false

let exact = function
  | Dphyp | Dpsize | Dpsub | Dpccp | Topdown | Tdpart -> true
  | Goo | Idp | Partition | Adaptive | Dpconv -> false

let default_k = function
  | Partition -> Partition.default_stitch_k
  | _ -> Idp.default_k

type result = {
  plan : Plans.Plan.t option;
  counters : Counters.t;
  dp_entries : int;
  tier : Adaptive.tier option;
  attempts : Adaptive.attempt list;
}

let run ?obs ?model ?filter ?budget ?k ?(dpconv_objective = Dpconv.Cmax) algo
    g =
  let k = Option.value k ~default:(default_k algo) in
  if filter <> None && not (supports_filter algo) then
    invalid_arg
      (Printf.sprintf "Optimizer.run: %s does not support a validity filter"
         (name algo));
  let counters = Counters.create ?budget () in
  let enumerate () =
    match algo with
    | Dphyp ->
        let dp, plan = Dphyp.solve_with_table ?model ?filter ~counters g in
        { plan; counters; dp_entries = Plans.Dp_table.size dp; tier = None;
          attempts = [] }
    | Dpsize ->
        let dp, plan = Dpsize.solve_with_table ?model ?filter ~counters g in
        { plan; counters; dp_entries = Plans.Dp_table.size dp; tier = None;
          attempts = [] }
    | Dpsub ->
        let dp, plan = Dpsub.solve_with_table ?model ?filter ~counters g in
        { plan; counters; dp_entries = Plans.Dp_table.size dp; tier = None;
          attempts = [] }
    | Dpccp ->
        let dp, plan = Dpccp.solve_with_table ?model ~counters g in
        { plan; counters; dp_entries = Plans.Dp_table.size dp; tier = None;
          attempts = [] }
    | Goo ->
        let plan = Goo.solve ?model ~counters g in
        { plan; counters; dp_entries = 0; tier = None; attempts = [] }
    | Topdown ->
        let plan = Top_down.solve ?model ~counters g in
        { plan; counters; dp_entries = 0; tier = None; attempts = [] }
    | Tdpart ->
        let plan = Top_down_partition.solve ?model ~counters g in
        { plan; counters; dp_entries = 0; tier = None; attempts = [] }
    | Idp ->
        let plan = Idp.solve ?obs ?model ~counters ~k g in
        { plan; counters; dp_entries = 0; tier = None; attempts = [] }
    | Partition ->
        let plan = Partition.solve ?obs ?model ~counters ~k g in
        { plan; counters; dp_entries = 0; tier = None; attempts = [] }
    | Adaptive ->
        let o = Adaptive.solve ?obs ?model ?budget g in
        {
          plan = o.Adaptive.plan;
          counters = o.Adaptive.counters;
          dp_entries = o.Adaptive.dp_entries;
          tier = Some o.Adaptive.tier;
          attempts = o.Adaptive.attempts;
        }
    | Dpconv ->
        let o = Dpconv.solve ?model ~objective:dpconv_objective ~counters g in
        {
          plan = o.Dpconv.plan;
          counters;
          dp_entries = Plans.Dp_table.size o.Dpconv.dp;
          tier = None;
          attempts = [];
        }
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

let plan_source algo r =
  match r.tier with
  | Some t -> name algo ^ ":" ^ Adaptive.tier_name t
  | None -> name algo

let counters_snapshot (c : Counters.t) : Obs.Metrics.counters =
  {
    Obs.Metrics.pairs_considered = c.Counters.pairs_considered;
    ccp_emitted = c.Counters.ccp_emitted;
    cost_calls = c.Counters.cost_calls;
    filter_rejected = c.Counters.filter_rejected;
    neighborhood_calls = c.Counters.neighborhood_calls;
    budget_limit = Counters.budget c;
    budget_remaining = Counters.remaining c;
  }

let profile ctx r =
  Obs.Metrics.make
    ~counters:(counters_snapshot r.counters)
    ~dp_entries:r.dp_entries
    ~tiers:
      (List.map
         (fun (a : Adaptive.attempt) ->
           {
             Obs.Metrics.tier = Adaptive.tier_name a.tier;
             completed = a.completed;
             pairs = a.pairs;
             skipped = a.skipped;
           })
         r.attempts)
    ?winning_tier:(Option.map Adaptive.tier_name r.tier)
    ~total_s:(Obs.Span.elapsed ctx) (Obs.Span.spans ctx)
