exception Budget_exhausted

type t = {
  mutable pairs_considered : int;
  mutable ccp_emitted : int;
  mutable cost_calls : int;
  mutable filter_rejected : int;
  mutable neighborhood_calls : int;
  mutable budget_limit : int;
}

let check_budget budget =
  match budget with
  | None -> max_int
  | Some b ->
      if b < 0 then invalid_arg "Counters.create: negative budget" else b

let create ?budget () =
  {
    pairs_considered = 0;
    ccp_emitted = 0;
    cost_calls = 0;
    filter_rejected = 0;
    neighborhood_calls = 0;
    budget_limit = check_budget budget;
  }

let absorb ~into c =
  into.pairs_considered <- into.pairs_considered + c.pairs_considered;
  into.ccp_emitted <- into.ccp_emitted + c.ccp_emitted;
  into.cost_calls <- into.cost_calls + c.cost_calls;
  into.filter_rejected <- into.filter_rejected + c.filter_rejected;
  into.neighborhood_calls <- into.neighborhood_calls + c.neighborhood_calls

let budget t = if t.budget_limit = max_int then None else Some t.budget_limit

let remaining t =
  if t.budget_limit = max_int then None
  else Some (max 0 (t.budget_limit - t.pairs_considered))

let tick_pair t =
  t.pairs_considered <- t.pairs_considered + 1;
  if t.pairs_considered > t.budget_limit then raise Budget_exhausted

let reset t =
  t.pairs_considered <- 0;
  t.ccp_emitted <- 0;
  t.cost_calls <- 0;
  t.filter_rejected <- 0;
  t.neighborhood_calls <- 0

(* Rendered through the shared telemetry formatting so this line can
   never disagree with what `joinopt stats` exports. *)
let pp ppf t =
  Obs.Export.pp_kvs ppf
    ([
       Obs.Export.kv_int "pairs" t.pairs_considered;
       Obs.Export.kv_int "ccp" t.ccp_emitted;
       Obs.Export.kv_int "cost-calls" t.cost_calls;
       Obs.Export.kv_int "filtered" t.filter_rejected;
       Obs.Export.kv_int "neighborhoods" t.neighborhood_calls;
     ]
    @
    match remaining t with
    | None -> [ Obs.Export.kv "budget" "unlimited" ]
    | Some r ->
        [
          Obs.Export.kv_int "budget" t.budget_limit;
          Obs.Export.kv_int "remaining" r;
        ])
