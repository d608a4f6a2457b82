module Ns = Nodeset.Node_set
module Ot = Relalg.Optree
module Op = Relalg.Operator
module V = Relalg.Value

let rec output_tables = function
  | Ot.Leaf l -> [ l.node ]
  | Ot.Node n -> (
      let l = output_tables n.left and r = output_tables n.right in
      match n.op.Op.kind with
      | Op.Inner | Op.Left_outer | Op.Full_outer -> l @ r
      | Op.Left_semi | Op.Left_anti -> l
      | Op.Left_nest -> l @ [ List.fold_left min (List.hd r) r ])

let holds_in env pred =
  Relalg.Predicate.holds ~lookup:(fun t a -> Env.lookup env t a) pred

(* Aggregate evaluation over a group of right-side envs, each merged
   with the left tuple so that aggregate arguments may reference left
   attributes too. *)
let eval_aggs aggs ~left_env ~group =
  let lookups =
    List.map
      (fun renv ->
        let env = Env.merge left_env renv in
        fun t a -> Env.lookup env t a)
      group
  in
  List.map
    (fun (a : Relalg.Aggregate.t) -> (a.name, Relalg.Aggregate.eval ~lookups a))
    aggs

(* ------------------------------------------------------------------ *)
(* Per-operator runtime statistics.

   One mutable accumulator per tree node, keyed by the node's leaf set
   T(node) — unique within a tree (children partition their parent's
   leaves), and equal to the [set] of the plan node that emitted it,
   which is how EXPLAIN ANALYZE joins estimates against actuals.  The
   collector is filled in the same pass that evaluates the tree:
   every operator records rows produced, predicate evaluations,
   invocation count (dependent subtrees run once per outer tuple) and
   inclusive wall-clock.  The unobserved entry points pass no
   collector and evaluate exactly as before. *)

type op_stat = {
  tables : Ns.t;  (* T(subtree): the collector's join key *)
  op : Op.t option;  (* None for leaves *)
  rows_out : int;
  invocations : int;
  pred_evals : int;
  wall_s : float;
}

type acc = {
  a_tables : Ns.t;
  a_op : Op.t option;
  mutable a_rows : int;
  mutable a_inv : int;
  mutable a_pred : int;
  mutable a_wall : float;
}

let acc_for coll tree =
  match coll with
  | None -> None
  | Some tbl -> (
      let tables = Ot.tables tree in
      let key = Ns.to_int tables in
      match Hashtbl.find_opt tbl key with
      | Some a -> Some a
      | None ->
          let op =
            match tree with Ot.Leaf _ -> None | Ot.Node n -> Some n.op
          in
          let a =
            { a_tables = tables; a_op = op; a_rows = 0; a_inv = 0; a_pred = 0;
              a_wall = 0.0 }
          in
          Hashtbl.add tbl key a;
          Some a)

let rec eval_i coll inst ~outer tree =
  let a = acc_for coll tree in
  let t0 = match a with None -> 0.0 | Some _ -> Obs.Span.now () in
  let result =
    match tree with
    | Ot.Leaf l ->
        List.map (fun row -> Env.bind l.node row Env.empty)
          (Instance.rows_of inst ~outer l.node)
    | Ot.Node n ->
        let left_envs = eval_i coll inst ~outer n.left in
        let right_tables = output_tables n.right in
        let nest_carrier = List.fold_left min max_int right_tables in
        let right_for lenv =
          if n.op.Op.dependent then
            eval_i coll inst ~outer:(Env.merge outer lenv) n.right
          else eval_i coll inst ~outer n.right
        in
        let shared_right =
          if n.op.Op.dependent then None
          else Some (eval_i coll inst ~outer n.right)
        in
        let get_right lenv =
          match shared_right with Some r -> r | None -> right_for lenv
        in
        let matches lenv renvs =
          List.filter
            (fun renv ->
              (match a with Some a -> a.a_pred <- a.a_pred + 1 | None -> ());
              holds_in (Env.merge outer (Env.merge lenv renv)) n.pred)
            renvs
        in
        (match n.op.Op.kind with
        | Op.Inner ->
            List.concat_map
              (fun lenv ->
                List.map (fun renv -> Env.merge lenv renv)
                  (matches lenv (get_right lenv)))
              left_envs
        | Op.Left_outer ->
            List.concat_map
              (fun lenv ->
                match matches lenv (get_right lenv) with
                | [] ->
                    [ List.fold_left (fun e t -> Env.bind_null t e) lenv
                        right_tables ]
                | ms -> List.map (fun renv -> Env.merge lenv renv) ms)
              left_envs
        | Op.Full_outer ->
            let right_envs = get_right Env.empty in
            let matched_right = Hashtbl.create 64 in
            let left_part =
              List.concat_map
                (fun lenv ->
                  match matches lenv right_envs with
                  | [] ->
                      [ List.fold_left (fun e t -> Env.bind_null t e) lenv
                          right_tables ]
                  | ms ->
                      List.map
                        (fun renv ->
                          Hashtbl.replace matched_right
                            (Env.canonical ~universe:right_tables renv) ();
                          Env.merge lenv renv)
                        ms)
                left_envs
            in
            let left_tables = output_tables n.left in
            let right_part =
              List.filter_map
                (fun renv ->
                  if
                    Hashtbl.mem matched_right
                      (Env.canonical ~universe:right_tables renv)
                  then None
                  else
                    Some
                      (List.fold_left (fun e t -> Env.bind_null t e) renv
                         left_tables))
                right_envs
            in
            left_part @ right_part
        | Op.Left_semi ->
            List.filter (fun lenv -> matches lenv (get_right lenv) <> [])
              left_envs
        | Op.Left_anti ->
            List.filter (fun lenv -> matches lenv (get_right lenv) = [])
              left_envs
        | Op.Left_nest ->
            List.map
              (fun lenv ->
                let group = matches lenv (get_right lenv) in
                let agg_row = eval_aggs n.aggs ~left_env:lenv ~group in
                Env.bind nest_carrier agg_row lenv)
              left_envs)
  in
  (match a with
  | None -> ()
  | Some a ->
      a.a_inv <- a.a_inv + 1;
      a.a_rows <- a.a_rows + List.length result;
      a.a_wall <- a.a_wall +. (Obs.Span.now () -. t0));
  result

let eval inst tree = eval_i None inst ~outer:Env.empty tree

let eval_stats ?obs inst tree =
  Obs.Span.with_opt obs "execute" (fun sp ->
      let tbl = Hashtbl.create 32 in
      let envs = eval_i (Some tbl) inst ~outer:Env.empty tree in
      (* report in postorder (children before parents), the order the
         quadratic Stats.per_node historically used *)
      let out = ref [] in
      let rec walk t =
        (match t with
        | Ot.Leaf _ -> ()
        | Ot.Node n ->
            walk n.left;
            walk n.right);
        match Hashtbl.find_opt tbl (Ns.to_int (Ot.tables t)) with
        | Some a ->
            out :=
              { tables = a.a_tables; op = a.a_op; rows_out = a.a_rows;
                invocations = a.a_inv; pred_evals = a.a_pred;
                wall_s = a.a_wall }
              :: !out
        | None -> ()
      in
      walk tree;
      let stats = List.rev !out in
      Obs.Span.set_opt sp "rows" (Obs.Span.Int (List.length envs));
      Obs.Span.set_opt sp "operators"
        (Obs.Span.Int
           (List.length (List.filter (fun s -> s.op <> None) stats)));
      Obs.Span.set_opt sp "pred_evals"
        (Obs.Span.Int (List.fold_left (fun s st -> s + st.pred_evals) 0 stats));
      (envs, stats))
