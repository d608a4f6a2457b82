module G = Hypergraph.Graph

type tier = Exact | Partitioned | Idp_k of int | Greedy | Conv

let tier_name = function
  | Exact -> "exact"
  | Partitioned -> "partitioned"
  | Idp_k k -> Printf.sprintf "idp-%d" k
  | Greedy -> "greedy"
  | Conv -> "dpconv"

let span_prefix = "tier:"

let skipped_attr = "skipped"

let span_name tier = span_prefix ^ tier_name tier

let ran_tier (s : Obs.Span.span) =
  let name = s.Obs.Span.name and p = String.length span_prefix in
  if
    String.starts_with ~prefix:span_prefix name
    && not (List.mem_assoc skipped_attr s.Obs.Span.attrs)
  then Some (String.sub name p (String.length name - p))
  else None

(* The dense band: simple inner graphs with at least 0.4 of the
   complete graph's edges (the wide path above small_capacity never
   reaches it).  There most subsets are connected, so DPhyp's pair
   stream nears its Θ(3^n) worst case, and a cost bound prunes most
   of it.  GOO's plan gives that bound in O(n^3) pairs: on
   [Dpconv.simple_inner] graphs DPhyp prices every merge GOO makes, so
   GOO's cost bounds the optimum. *)
let dense_min_density = 0.4

let dense g =
  let n = G.num_nodes g in
  Dpconv.simple_inner g
  && float_of_int (G.num_edges g)
     >= dense_min_density *. float_of_int (n * (n - 1) / 2)

type attempt = {
  tier : tier;
  completed : bool;
  pairs : int;
  skipped : (int * int) option;
}

type outcome = {
  plan : Plans.Plan.t option;
  tier : tier;
  counters : Counters.t;
  dp_entries : int;
  attempts : attempt list;
}

let default_ks = [ 10; 7; 5; 3 ]

(* Every tier gets a fresh budget: the point of the ladder is that
   each rung does strictly less work per answer, so re-charging the
   budget keeps the semantics simple ("no single strategy may exceed
   b pairs") and deterministic.  GOO runs deliberately unbudgeted —
   it is O(n^2 · n) pairs and must always produce the answer of last
   resort (and, on dense graphs, the first bound). *)
let solve ?obs ?(model = Costing.Cost_model.c_out) ?budget g =
  let attempts = ref [] in
  let record ?skipped tier completed (c : Counters.t) =
    attempts :=
      { tier; completed; pairs = c.Counters.pairs_considered; skipped }
      :: !attempts
  in
  let finish tier (counters : Counters.t) dp_entries plan =
    record tier true counters;
    { plan; tier; counters; dp_entries; attempts = List.rev !attempts }
  in
  (* One span per ladder rung.  The pairs attribute is attached in a
     [finally] so an attempt aborted by [Budget_exhausted] still
     reports what it cost before the exception unwinds. *)
  let tier_span tier (c : Counters.t) f =
    (* Label every DP table the rung creates with its tier, so a
       provenance recording of a ladder run can attribute each memo
       decision to the rung that made it. *)
    let label = span_name tier in
    let f () = Plans.Dp_table.with_context label f in
    match obs with
    | None -> f ()
    | Some ctx ->
        Obs.Span.with_ ctx label (fun sp ->
            Fun.protect
              ~finally:(fun () ->
                Obs.Span.set sp "pairs"
                  (Obs.Span.Int c.Counters.pairs_considered))
              f)
  in
  (* One budgeted rung: fresh counters, its span and table context.
     [Some (counters, result)] when it ran to completion; [None] once
     the budget cut it short, which is recorded here. *)
  let attempt tier run =
    let counters = Counters.create ?budget () in
    match tier_span tier counters (fun () -> run counters) with
    | r -> Some (counters, r)
    | exception Counters.Budget_exhausted ->
        record tier false counters;
        None
  in
  (* GOO, unbudgeted.  The request's budget still frames its answer:
     the returned counters hold GOO's counts under that budget, so a
     greedy answer prints and exports the budget it was given. *)
  let greedy () =
    let counters = Counters.create () in
    let plan =
      tier_span Greedy counters (fun () -> Goo.solve ~model ~counters g)
    in
    let answer = Counters.create ?budget () in
    Counters.absorb ~into:answer counters;
    (answer, plan)
  in
  let n = G.num_nodes g in
  (* A rung that answers with a plan or falls through to [next]. *)
  let rec rung tier run ~next =
    match attempt tier run with
    | Some (counters, Some plan) -> finish tier counters 0 (Some plan)
    | Some (counters, None) ->
        record tier true counters;
        next ()
    | None -> next ()
  and descend = function
    | [] ->
        let counters, plan = greedy () in
        finish Greedy counters 0 plan
    | k :: rest when k >= n ->
        (* k >= n would just repeat the exact run that already blew
           the budget *)
        descend rest
    | k :: rest ->
        rung (Idp_k k)
          (fun counters -> Idp.solve ?obs ~model ~counters ~k g)
          ~next:(fun () -> descend rest)
  in
  if n > Nodeset.Node_set.small_capacity then
    (* Wide queries: exhaustive DP over the whole graph is out of
       reach (and DPhyp would try to enumerate 2^n subsets), so the
       ladder starts at the partitioned tier — per-block exact DP
       stitched with IDP — and degrades through the IDP rungs to GOO
       exactly as before. *)
    rung Partitioned
      (fun counters -> Partition.solve ?obs ~model ~counters g)
      ~next:(fun () -> descend default_ks)
  else begin
    let exact ?bound ~on_exhausted () =
      (* An unpruned rung ticks at least [Dphyp.min_pairs] pairs, so
         when that exceeds the budget the rung would certainly raise:
         record it as skipped and degrade at once.  A [?bound] prunes
         the enumeration, which voids the certificate. *)
      let needs =
        match (bound, budget) with
        | None, Some b ->
            let m = Dphyp.min_pairs g in
            if m > b then Some (m, b) else None
        | _ -> None
      in
      match needs with
      | Some (m, _) ->
          Option.iter
            (fun ctx ->
              Obs.Span.with_ ctx
                ~attrs:
                  [
                    (skipped_attr, Obs.Span.Bool true);
                    ("min_pairs", Obs.Span.Int m);
                    ("pairs", Obs.Span.Int 0);
                  ]
                (span_name Exact) ignore)
            obs;
          record ?skipped:needs Exact false (Counters.create ());
          on_exhausted ()
      | None -> (
          match
            attempt Exact (fun counters ->
                Dphyp.solve_with_table ~model ?bound ~counters g)
          with
          | Some (counters, (dp, plan)) ->
              finish Exact counters (Plans.Dp_table.size dp) plan
          | None -> on_exhausted ())
    in
    let fall_back () = descend default_ks in
    if not (dense g) then exact ~on_exhausted:fall_back ()
    else
      (* Dense graph: GOO first, unbudgeted like the last rung.  Its
         cost, with slack for the rounding of a sum priced in another
         order, bounds the exact run (see Dphyp's [bound]), which
         voids the min_pairs certificate; if the bounded rung still
         blows the budget, GOO's plan answers.  A completed rung's
         result stands, [None] on a disconnected graph included. *)
      match greedy () with
      | _, None -> exact ~on_exhausted:fall_back ()
      | counters, Some goo ->
          record Greedy true counters;
          exact
            ~bound:(goo.Plans.Plan.cost *. (1. +. 1e-9))
            ~on_exhausted:(fun () ->
              (* GOO ran once: its entry moves behind the rung it
                 bounded, where [finish] lists the winner *)
              attempts :=
                List.filter (fun (a : attempt) -> a.tier <> Greedy) !attempts;
              finish Greedy counters 0 (Some goo))
            ()
  end

let pp_attempt ppf a =
  match a.skipped with
  | Some (needs, budget) ->
      Format.fprintf ppf "%s(skipped: needs ≥ %d pairs > budget %d)"
        (tier_name a.tier) needs budget
  | None ->
      Format.fprintf ppf "%s(%d pairs%s)" (tier_name a.tier) a.pairs
        (if a.completed then "" else ", budget ran out")

let pp_attempts ppf attempts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    pp_attempt ppf attempts

(* The exact plan as a quality reference.  A diagnostic, not a
   planning path, so it is capped rather than budgeted by the caller:
   the certificate turns away a run that would certainly blow the cap
   (star-29 would need billions of pairs) before it allocates
   anything, and the cap stops the rest. *)
let exact_baseline_cap = 1_000_000

let exact_baseline ?model g =
  let needs = Dphyp.min_pairs g in
  if needs > exact_baseline_cap then
    Error
      (Printf.sprintf "needs ≥ %d pairs > cap %d" needs exact_baseline_cap)
  else
    let counters = Counters.create ~budget:exact_baseline_cap () in
    match Dphyp.solve ?model ~counters g with
    | Some plan -> Ok plan
    | None -> Error "the graph is disconnected"
    | exception Counters.Budget_exhausted ->
        Error (Printf.sprintf "ran out of its %d-pair cap" exact_baseline_cap)

(* The quality price of graceful degradation, as an aligned plan
   diff. *)
let loss_report ?model g tier plan =
  match tier with
  | Exact -> None
  | tier ->
      let names i = (G.relation g i).G.name in
      Some
        (Result.map
           (fun exact ->
             Plans.Plan_diff.report ~names ~labels:(tier_name tier, "exact")
               plan exact)
           (exact_baseline ?model g))
