module Ns = Nodeset.Node_set
module Ot = Relalg.Optree

type source =
  | Rows of Env.row list
  | Func of (Env.t -> Env.row list)

type t = (int, source) Hashtbl.t

let make bindings =
  let t = Hashtbl.create 16 in
  List.iter (fun (i, s) -> Hashtbl.replace t i s) bindings;
  t

let source t i =
  match Hashtbl.find_opt t i with Some s -> s | None -> raise Not_found

let rows_of t ~outer i =
  match source t i with Rows rows -> rows | Func f -> f outer

(* Attribute harvesting: walk predicates, aggregates and scalar
   expressions, collect (table, attr) pairs. *)
let rec scalar_cols acc = function
  | Relalg.Scalar.Col (t, a) -> (t, a) :: acc
  | Relalg.Scalar.Const _ -> acc
  | Relalg.Scalar.Add (x, y) | Relalg.Scalar.Sub (x, y) | Relalg.Scalar.Mul (x, y)
    ->
      scalar_cols (scalar_cols acc x) y

let rec pred_cols acc = function
  | Relalg.Predicate.True_ | Relalg.Predicate.False_ -> acc
  | Relalg.Predicate.Cmp (_, a, b) -> scalar_cols (scalar_cols acc a) b
  | Relalg.Predicate.And (a, b) | Relalg.Predicate.Or (a, b) ->
      pred_cols (pred_cols acc a) b
  | Relalg.Predicate.Not a -> pred_cols acc a

(* Per-table attribute lists harvested from every predicate and
   aggregate in the tree (deduplicated, sorted). *)
let attrs_for_tree tree =
  let cols = ref [] in
  let rec walk = function
    | Ot.Leaf _ -> ()
    | Ot.Node n ->
        cols := pred_cols !cols n.pred;
        List.iter
          (fun (a : Relalg.Aggregate.t) -> cols := scalar_cols !cols a.arg)
          n.aggs;
        walk n.left;
        walk n.right
  in
  walk tree;
  let tbl = Hashtbl.create 16 in
  List.iter (fun (l : Ot.leaf) -> Hashtbl.replace tbl l.node []) (Ot.leaves tree);
  List.iter
    (fun (t, a) ->
      match Hashtbl.find_opt tbl t with
      | Some attrs when not (List.mem a attrs) -> Hashtbl.replace tbl t (a :: attrs)
      | _ -> ())
    !cols;
  Hashtbl.fold (fun t attrs acc -> (t, List.sort String.compare attrs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let for_tree ?(rows = 6) ?(domain = 4) ~seed tree =
  let attrs = attrs_for_tree tree in
  let attrs_of i = Option.value ~default:[] (List.assoc_opt i attrs) in
  let bindings =
    List.map
      (fun (l : Ot.leaf) ->
        let rng = Random.State.make [| seed; l.node; 77 |] in
        let gen_rows shift =
          List.init rows (fun _ ->
              List.map
                (fun a ->
                  (a, Relalg.Value.Int (shift + Random.State.int rng domain)))
                (attrs_of l.node))
        in
        if Ns.is_empty l.free then (l.node, Rows (gen_rows 0))
        else begin
          (* table function: output values shift with the first free
             table's first attribute, making dependence observable *)
          let dep = Ns.min_elt l.free in
          let dep_attr =
            match attrs_of dep with a :: _ -> Some a | [] -> None
          in
          let base = gen_rows 0 in
          ( l.node,
            Func
              (fun outer ->
                let shift =
                  match dep_attr with
                  | Some a -> (
                      match Env.lookup outer dep a with
                      | Relalg.Value.Int v -> v mod 2
                      | _ -> 0)
                  | None -> 0
                in
                List.map
                  (fun row ->
                    List.map
                      (fun (a, v) ->
                        match v with
                        | Relalg.Value.Int x -> (a, Relalg.Value.Int (x + shift))
                        | _ -> (a, v))
                      row)
                  base) )
        end)
      (Ot.leaves tree)
  in
  make bindings
