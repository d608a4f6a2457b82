module Ns = Nodeset.Node_set
module G = Hypergraph.Graph

(* Greedy: keep a work list of component plans; each round, cost every
   joinable pair and keep the merge with the smallest output
   cardinality.  A dedicated DP table per round is wasteful, so merges
   are built directly through Emit.candidates. *)
let solve ?(model = Costing.Cost_model.c_out) ?(counters = Counters.create ())
    g =
  let n = G.num_nodes g in
  let components = ref (List.init n (fun v -> Plans.Plan.scan g v)) in
  let build p1 p2 =
    match Emit.candidates ~model ~counters g p1 p2 with
    | [] -> None
    | first :: rest ->
        Some
          (List.fold_left
             (fun (acc : Plans.Plan.t) (c : Plans.Plan.t) ->
               if c.cost < acc.cost then c else acc)
             first rest)
  in
  let rec round () =
    match !components with
    | [] -> None
    | [ p ] -> Some p
    | comps ->
        let best = ref None in
        List.iteri
          (fun i p1 ->
            List.iteri
              (fun j p2 ->
                if i < j then begin
                  Counters.tick_pair counters;
                  match build p1 p2 with
                  | None -> ()
                  | Some p -> (
                      match !best with
                      | Some (b, _, _) when b.Plans.Plan.card <= p.Plans.Plan.card
                        ->
                          ()
                      | _ -> best := Some (p, p1, p2))
                end)
              comps)
          comps;
        (match !best with
        | Some (p, p1, p2) ->
            components :=
              p :: List.filter (fun q -> q != p1 && q != p2) comps;
            round ()
        | None -> (
            (* no edge applies: cheapest cross product of the two
               smallest components *)
            match List.sort (fun a b -> Float.compare a.Plans.Plan.card b.Plans.Plan.card) comps with
            | p1 :: p2 :: rest ->
                counters.Counters.cost_calls <- counters.Counters.cost_calls + 1;
                (* it still applies the edges it is the first to cover:
                   every plan over s has applied those s covers *)
                let edge_ids =
                  Plans.Plan.applied_edges g p1.Plans.Plan.set p2.Plans.Plan.set
                in
                let sel =
                  List.fold_left (fun s id -> s *. (G.edge g id).sel) 1.0 edge_ids
                in
                let p =
                  Plans.Plan.join model ~op:Relalg.Operator.join ~edge_ids ~sel
                    p1 p2
                in
                components := p :: rest;
                round ()
            | _ -> assert false))
  in
  round ()
