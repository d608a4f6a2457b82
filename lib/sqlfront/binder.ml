module Ns = Nodeset.Node_set
module Ot = Relalg.Optree
module P = Relalg.Predicate
module Op = Relalg.Operator

type bound = {
  tree : Ot.t;
  aliases : (string * int) list;
  tables : string array;
  select : Ast.select_item list;
}

exception Bind_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

let kind_to_op = function
  | Ast.Inner -> Op.join
  | Ast.Left_outer -> Op.left_outer
  | Ast.Full_outer -> Op.full_outer
  | Ast.Semi -> Op.left_semi
  | Ast.Anti -> Op.left_anti

let resolve_col aliases qualifier attr =
  match qualifier with
  | Some q -> (
      match List.assoc_opt q aliases with
      | Some idx -> idx
      | None -> fail "unknown table alias %S in %s.%s" q q attr)
  | None -> (
      match aliases with
      | [ (_, only) ] -> only
      | _ -> fail "unqualified column %S is ambiguous; qualify it" attr)

let rec bind_scalar aliases = function
  | Ast.Col (q, a) -> Relalg.Scalar.Col (resolve_col aliases q a, a)
  | Ast.Int i -> Relalg.Scalar.Const (Relalg.Value.Int i)
  | Ast.Str s -> Relalg.Scalar.Const (Relalg.Value.Str s)
  | Ast.Add (a, b) -> Relalg.Scalar.Add (bind_scalar aliases a, bind_scalar aliases b)
  | Ast.Sub (a, b) -> Relalg.Scalar.Sub (bind_scalar aliases a, bind_scalar aliases b)
  | Ast.Mul (a, b) -> Relalg.Scalar.Mul (bind_scalar aliases a, bind_scalar aliases b)

let bind_cmp = function
  | Ast.Eq -> P.Eq
  | Ast.Ne -> P.Ne
  | Ast.Lt -> P.Lt
  | Ast.Le -> P.Le
  | Ast.Gt -> P.Gt
  | Ast.Ge -> P.Ge

let rec bind_pred aliases = function
  | Ast.True -> P.True_
  | Ast.False -> P.False_
  | Ast.Cmp (c, a, b) ->
      P.Cmp (bind_cmp c, bind_scalar aliases a, bind_scalar aliases b)
  | Ast.And (a, b) -> P.And (bind_pred aliases a, bind_pred aliases b)
  | Ast.Or (a, b) -> P.Or (bind_pred aliases a, bind_pred aliases b)
  | Ast.Not a -> P.Not (bind_pred aliases a)
  | Ast.Exists _ ->
      fail
        "EXISTS is only supported as a top-level conjunct of the WHERE clause"

(* split the WHERE AST into plain conjuncts and EXISTS conjuncts *)
let rec split_where = function
  | Ast.And (a, b) ->
      let pa, ea = split_where a and pb, eb = split_where b in
      (pa @ pb, ea @ eb)
  | Ast.Exists e -> ([], [ e ])
  | Ast.True -> ([], [])
  | p -> ([ p ], [])

(* Attach each WHERE conjunct at the first operator, in post-order,
   whose tables cover it — it must be an inner join there, else the
   filter over a padding/filtering operator has no sound home.  Each
   operator's tables are computed once, bottom-up; the first failing
   conjunct, in WHERE order, is the one reported; the tree is rebuilt
   once, each operator's conjuncts folded in WHERE order. *)
let attach_where tree conjs =
  let count = Ot.num_ops tree in
  let nodes = Array.make count None and scopes = Array.make count Ns.empty in
  let next = ref 0 in
  let rec scope = function
    | Ot.Leaf l -> Ns.singleton l.Ot.node
    | Ot.Node n ->
        let tables = Ns.union (scope n.left) (scope n.right) in
        nodes.(!next) <- Some n;
        scopes.(!next) <- tables;
        incr next;
        tables
  in
  ignore (scope tree);
  let attached = Array.make count [] in
  List.iter
    (fun p ->
      let ft = P.free_tables p in
      let i = ref 0 in
      while !i < count && not (Ns.subset ft scopes.(!i)) do
        incr i
      done;
      if !i = count then
        fail "WHERE predicate %s references unknown tables" (P.to_string p);
      let i = !i in
      let n = Option.get nodes.(i) in
      if n.op.Relalg.Operator.kind <> Relalg.Operator.Inner then
        fail
          "WHERE predicate %s applies across a %s and is not null-rejecting \
           enough to simplify it; unsupported"
          (P.to_string p)
          (Relalg.Operator.symbol n.op);
      attached.(i) <- p :: attached.(i))
    conjs;
  next := 0;
  let rec rebuild = function
    | Ot.Leaf _ as t -> t
    | Ot.Node n as t -> (
        let left = rebuild n.left in
        let right = rebuild n.right in
        let i = !next in
        incr next;
        match attached.(i) with
        | [] when left == n.left && right == n.right -> t
        | ps ->
            let pred =
              List.fold_left (fun acc p -> P.And (acc, p)) n.pred (List.rev ps)
            in
            Ot.Node { n with left; right; pred })
  in
  rebuild tree

let bind (q : Ast.query) =
  try
    (* number relations in FROM order *)
    let items = q.from_first :: List.map (fun (j : Ast.join) -> j.item) q.from_rest in
    let aliases = List.mapi (fun i (it : Ast.from_item) -> (it.alias, i)) items in
    (if List.length (List.sort_uniq compare (List.map fst aliases))
        <> List.length aliases
    then fail "duplicate table alias in FROM clause");
    (* EXISTS subqueries become extra relations numbered after the
       FROM items, joined in with semijoins / antijoins *)
    let plain_where, exists_list =
      match q.where with None -> ([], []) | Some w -> split_where w
    in
    let n_from = List.length items in
    let exists_aliases =
      List.mapi
        (fun i (e : Ast.exists_query) -> (e.Ast.item.Ast.alias, n_from + i))
        exists_list
    in
    (if
       List.exists
         (fun (a, _) -> List.mem_assoc a aliases)
         exists_aliases
       || List.length (List.sort_uniq compare (List.map fst exists_aliases))
          <> List.length exists_aliases
     then fail "duplicate table alias between FROM and EXISTS subqueries");
    let aliases = aliases @ exists_aliases in
    let tables =
      Array.of_list
        (List.map (fun (it : Ast.from_item) -> it.Ast.table) items
        @ List.map
            (fun (e : Ast.exists_query) -> e.Ast.item.Ast.table)
            exists_list)
    in
    let where_conjs = List.map (bind_pred aliases) plain_where in
    (* Build the tree with ON predicates only first. *)
    let leaf i = Ot.leaf i tables.(i) in
    let tree = ref (leaf 0) in
    List.iteri
      (fun i (j : Ast.join) ->
        let right = leaf (i + 1) in
        let pred =
          match j.on with Some p -> bind_pred aliases p | None -> P.True_
        in
        tree := Ot.op (kind_to_op j.kind) pred !tree right)
      q.from_rest;
    (* The WHERE clause filters the final result, so null-rejecting
       conjuncts simplify outer joins below it (Galindo-Legaria &
       Rosenthal) BEFORE attachment.  We reuse the Simplify pass by
       pretending the whole query sits under one inner join carrying
       the WHERE predicate, then attach the conjuncts. *)
    let tree =
      match where_conjs with
      | [] -> !tree
      | conjs -> (
          let wrapped =
            Ot.op Relalg.Operator.join (P.conj conjs) !tree
              (Ot.leaf (Array.length tables) "<where>")
          in
          match Conflicts.Simplify.simplify wrapped with
          | Ot.Node n -> attach_where n.left conjs
          | Ot.Leaf _ -> assert false)
    in
    (* append EXISTS / NOT EXISTS as semijoins / antijoins *)
    let tree =
      List.fold_left
        (fun acc ((e : Ast.exists_query), idx) ->
          let pred =
            match e.Ast.inner_where with
            | Some p -> bind_pred aliases p
            | None -> P.True_
          in
          let op =
            if e.Ast.negated then Relalg.Operator.left_anti
            else Relalg.Operator.left_semi
          in
          Ot.op op pred acc (Ot.leaf idx e.Ast.item.Ast.table))
        tree
        (List.mapi (fun i e -> (e, n_from + i)) exists_list)
    in
    (match Ot.validate tree with
    | Ok () -> ()
    | Error e -> fail "internal: invalid tree: %s" (Ot.error_to_string e));
    Ok { tree; aliases; tables; select = q.select }
  with Bind_error msg -> Error msg

let parse_and_bind src =
  match Parser.parse src with
  | exception Parser.Error msg -> Error msg
  | ast -> bind ast

let node_of_alias b alias = List.assoc_opt alias b.aliases
