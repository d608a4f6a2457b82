module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Op = Relalg.Operator

type issue =
  | Overlapping_children of string
  | Wrong_set of string
  | Bad_leaf of string
  | Edge_not_connecting of string
  | Edge_missed of string
  | Edge_duplicated of string
  | Bad_orientation of string
  | Dependence_violation of string

let issue_to_string = function
  | Overlapping_children s -> "overlapping children: " ^ s
  | Wrong_set s -> "wrong node set: " ^ s
  | Bad_leaf s -> "leaf is not a plain scan: " ^ s
  | Edge_not_connecting s -> "edge does not connect the join: " ^ s
  | Edge_missed s -> "edge never applied: " ^ s
  | Edge_duplicated s -> "edge applied more than once: " ^ s
  | Bad_orientation s -> "operator argument order contradicts edge: " ^ s
  | Dependence_violation s -> "dependent-operator misuse: " ^ s

let check g (plan : Plan.t) =
  let issues = ref [] in
  let add i = issues := i :: !issues in
  let applied = Hashtbl.create 16 in
  let outstanding (p : Plan.t) = Ns.diff (G.free_of g p.set) p.set in
  let rec walk (p : Plan.t) =
    match p.tree with
    | Plan.Scan i ->
        if not (Ns.equal p.set (Ns.singleton i)) then
          add (Wrong_set (Printf.sprintf "scan R%d has set %s" i (Ns.to_string p.set)));
        (* an unflattened IDP block plan has leaves that carry the
           cost of the block they stand for *)
        if p.cost <> 0.0 || not (Float.equal p.card (G.cardinality g i)) then
          add
            (Bad_leaf
               (Printf.sprintf "scan R%d has cost %g and card %g" i p.cost
                  p.card))
    | Plan.Join j ->
        let l = j.left.Plan.set and r = j.right.Plan.set in
        if not (Ns.disjoint l r) then
          add
            (Overlapping_children
               (Printf.sprintf "%s vs %s" (Ns.to_string l) (Ns.to_string r)));
        if not (Ns.equal p.set (Ns.union l r)) then
          add
            (Wrong_set
               (Printf.sprintf "join set %s != %s u %s" (Ns.to_string p.set)
                  (Ns.to_string l) (Ns.to_string r)));
        List.iter
          (fun id ->
            Hashtbl.replace applied id
              (1 + Option.value ~default:0 (Hashtbl.find_opt applied id));
            let e = G.edge g id in
            match He.orient e l r with
            | None ->
                (* a covered inner edge may be applied as a pending
                   filter even though no aligned cut exists *)
                if
                  not
                    (e.He.op.Op.kind = Op.Inner
                    && Ns.subset (He.covers e) (Ns.union l r))
                then
                  add
                    (Edge_not_connecting
                       (Printf.sprintf "e%d at %s|%s" id (Ns.to_string l)
                          (Ns.to_string r)))
            | Some orient ->
                (* the operator recovered from a non-inner edge fixes
                   which side is the left argument *)
                if
                  e.He.op.Op.kind <> Op.Inner
                  && (not (Op.commutative e.He.op))
                  && e.He.op.Op.kind = j.op.Op.kind
                  && orient = He.Backward
                then
                  add
                    (Bad_orientation
                       (Printf.sprintf "e%d (%s) applied backward" id
                          (Op.symbol e.He.op))))
          j.edge_ids;
        (* dependence *)
        let fr = outstanding j.right and fl = outstanding j.left in
        if Ns.intersects fl r then
          add
            (Dependence_violation
               (Printf.sprintf "left argument %s depends on right %s"
                  (Ns.to_string l) (Ns.to_string r)));
        let needs_dep = Ns.intersects fr l in
        if needs_dep && not j.op.Op.dependent then
          add
            (Dependence_violation
               (Printf.sprintf "join over %s needs dependent operator"
                  (Ns.to_string p.set)));
        if j.op.Op.dependent && not needs_dep then
          add
            (Dependence_violation
               (Printf.sprintf "spurious dependent operator over %s"
                  (Ns.to_string p.set)));
        walk j.left;
        walk j.right
  in
  walk plan;
  (* global edge coverage *)
  Array.iter
    (fun (e : He.t) ->
      if Ns.subset (He.covers e) plan.Plan.set then begin
        match Hashtbl.find_opt applied e.He.id with
        | None -> add (Edge_missed (Printf.sprintf "e%d" e.He.id))
        | Some 1 -> ()
        | Some n -> add (Edge_duplicated (Printf.sprintf "e%d (%d times)" e.He.id n))
      end)
    (G.edges g);
  List.rev !issues
