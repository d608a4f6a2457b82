module Ns = Nodeset.Node_set
module Se = Nodeset.Subset_enum
module G = Hypergraph.Graph

let solve ?(model = Costing.Cost_model.c_out) ?(counters = Counters.create ())
    g =
  let memo : (int, Plans.Plan.t option) Hashtbl.t = Hashtbl.create 1024 in
  let all = G.all_nodes g in
  let rec best s =
    match Hashtbl.find_opt memo (Ns.to_int s) with
    | Some r -> r
    | None ->
        let result =
          if Ns.is_singleton s then Some (Plans.Plan.scan g (Ns.min_elt s))
          else begin
            let best_plan = ref None in
            let keep p =
              match !best_plan with
              | Some (b : Plans.Plan.t) when b.cost <= p.Plans.Plan.cost -> ()
              | _ -> best_plan := Some p
            in
            let consider s1 =
              let s2 = Ns.diff s s1 in
              if not (Ns.is_empty s2) then begin
                Counters.tick_pair counters;
                match best s1, best s2 with
                | Some p1, Some p2 ->
                    let cands = Emit.candidates ~model ~counters g p1 p2 in
                    if cands <> [] then
                      counters.Counters.ccp_emitted <-
                        counters.Counters.ccp_emitted + 1;
                    List.iter keep cands
                | _ -> ()
              end
            in
            (* S1 ranges over the connected subsets of the
               sub-hypergraph induced by S that contain min(S): grown
               DPhyp-style with everything outside S permanently
               forbidden. *)
            let v0 = Ns.min_elt s in
            let seed = Ns.singleton v0 in
            let outside = Ns.diff all s in
            consider seed;
            let rec grow c x =
              counters.Counters.neighborhood_calls <-
                counters.Counters.neighborhood_calls + 1;
              let n = G.neighborhood g c (G.simple_neighborhood g c) x in
              if not (Ns.is_empty n) then begin
                Se.iter_nonempty n (fun sub -> consider (Ns.union c sub));
                let x' = Ns.union x n in
                Se.iter_nonempty n (fun sub -> grow (Ns.union c sub) x')
              end
            in
            grow seed (Ns.union outside seed);
            !best_plan
          end
        in
        Hashtbl.replace memo (Ns.to_int s) result;
        result
  in
  best all
