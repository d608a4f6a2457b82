module Ns = Nodeset.Node_set

type leaf = { node : int; name : string; free : Ns.t }

type t =
  | Leaf of leaf
  | Node of node

and node = {
  op : Operator.t;
  pred : Predicate.t;
  aggs : Aggregate.t list;
  left : t;
  right : t;
}

let leaf ?(free = Ns.empty) node name = Leaf { node; name; free }

let op ?(aggs = []) op pred left right = Node { op; pred; aggs; left; right }

let join pred left right = op Operator.join pred left right

let rec tables = function
  | Leaf l -> Ns.singleton l.node
  | Node n -> Ns.union (tables n.left) (tables n.right)

let leaves t =
  let rec go acc = function
    | Leaf l -> l :: acc
    | Node n -> go (go acc n.right) n.left
  in
  go [] t

let num_leaves t = List.length (leaves t)

let rec num_ops = function
  | Leaf _ -> 0
  | Node n -> 1 + num_ops n.left + num_ops n.right

let operators t =
  let acc = ref [] in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
        go n.left;
        go n.right;
        acc := n :: !acc
  in
  go t;
  List.rev !acc

let leaf_free t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace tbl l.node l.free) (leaves t);
  fun i -> Option.value ~default:Ns.empty (Hashtbl.find_opt tbl i)

type error =
  | Bad_numbering of string
  | Pred_out_of_scope of string
  | Dependent_mismatch of string

let error_to_string = function
  | Bad_numbering s -> "bad leaf numbering: " ^ s
  | Pred_out_of_scope s -> "predicate out of scope: " ^ s
  | Dependent_mismatch s -> "dependent mismatch: " ^ s

let validate t =
  let ( let* ) = Result.bind in
  (* (1) left-to-right numbering 0..n-1 *)
  let ls = leaves t in
  let* () =
    let rec check i = function
      | [] -> Ok ()
      | l :: rest ->
          if l.node <> i then
            Error
              (Bad_numbering
                 (Printf.sprintf "leaf %s has index %d, expected %d" l.name
                    l.node i))
          else check (i + 1) rest
    in
    check 0 ls
  in
  (* (2) predicate scoping: a predicate may reference tables of its
     own subtree; aggregates likewise.  Dependent-leaf free variables
     must come from strictly earlier (left) tables. *)
  let all = tables t in
  let rec scope = function
    | Leaf l ->
        if Ns.subset l.free (Ns.diff all (Ns.singleton l.node)) then Ok ()
        else
          Error
            (Dependent_mismatch
               (Printf.sprintf "leaf %s free vars not in query" l.name))
    | Node n ->
        let* () = scope n.left in
        let* () = scope n.right in
        let inside = Ns.union (tables n.left) (tables n.right) in
        let ft = Predicate.free_tables n.pred in
        if not (Ns.subset ft inside) then
          Error
            (Pred_out_of_scope
               (Printf.sprintf "%s references %s outside %s"
                  (Predicate.to_string n.pred)
                  (Ns.to_string (Ns.diff ft inside))
                  (Ns.to_string inside)))
        else if
          n.op.Operator.kind = Operator.Left_nest
          && not
               (List.for_all
                  (fun a -> Ns.subset (Aggregate.free_tables a) inside)
                  n.aggs)
        then
          Error (Pred_out_of_scope "nestjoin aggregate references outer table")
        else Ok ()
  in
  scope t

let rec height = function
  | Leaf _ -> 1
  | Node n -> 1 + max (height n.left) (height n.right)

let rec is_left_deep = function
  | Leaf _ -> true
  | Node n -> (match n.right with Leaf _ -> is_left_deep n.left | Node _ -> false)

let rec pp_indent ppf ~indent t =
  let pad = String.make indent ' ' in
  match t with
  | Leaf l ->
      if Ns.is_empty l.free then Format.fprintf ppf "%s%s[R%d]" pad l.name l.node
      else
        Format.fprintf ppf "%s%s[R%d](dep on %a)" pad l.name l.node Ns.pp l.free
  | Node n ->
      Format.fprintf ppf "%s%a" pad Operator.pp n.op;
      (match n.pred with
      | Predicate.True_ -> ()
      | p -> Format.fprintf ppf " on %a" Predicate.pp p);
      if n.aggs <> [] then begin
        Format.fprintf ppf " aggs[";
        List.iteri
          (fun i a ->
            if i > 0 then Format.fprintf ppf "; ";
            Aggregate.pp ppf a)
          n.aggs;
        Format.fprintf ppf "]"
      end;
      Format.fprintf ppf "@\n%a@\n%a"
        (fun ppf -> pp_indent ppf ~indent:(indent + 2))
        n.left
        (fun ppf -> pp_indent ppf ~indent:(indent + 2))
        n.right

let pp ppf t = pp_indent ppf ~indent:0 t

let to_string t = Format.asprintf "%a" pp t
