(* Lexer, parser and binder tests for the toy SQL dialect. *)

module L = Sqlfront.Lexer
module Pa = Sqlfront.Parser
module A = Sqlfront.Ast
module B = Sqlfront.Binder
module Ot = Relalg.Optree
module Op = Relalg.Operator
module Ns = Nodeset.Node_set

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- lexer ---------- *)

let test_lexer_basic () =
  let toks = L.tokenize "SELECT a.x, 42 FROM t WHERE a.x <= 'hi'" in
  check "shape" true
    (toks
    = [
        L.KW "SELECT"; L.IDENT "a"; L.DOT; L.IDENT "x"; L.COMMA; L.INT 42;
        L.KW "FROM"; L.IDENT "t"; L.KW "WHERE"; L.IDENT "a"; L.DOT;
        L.IDENT "x"; L.LE; L.STRING "hi"; L.EOF;
      ])

let test_lexer_case_insensitive_keywords () =
  check "select lowercase" true (L.tokenize "select" = [ L.KW "SELECT"; L.EOF ]);
  check "ident keeps case" true (L.tokenize "Foo" = [ L.IDENT "Foo"; L.EOF ])

let test_lexer_operators () =
  check "two-char ops" true
    (L.tokenize "<> <= >= != < > = + - *"
    = [ L.NE; L.LE; L.GE; L.NE; L.LT; L.GT; L.EQ; L.PLUS; L.MINUS; L.STAR; L.EOF ])

let test_lexer_errors () =
  check "bad char" true
    (try ignore (L.tokenize "a ? b"); false with L.Error _ -> true);
  check "unterminated string" true
    (try ignore (L.tokenize "'oops"); false with L.Error _ -> true)

(* ---------- parser ---------- *)

let test_parse_simple () =
  let q = Pa.parse "SELECT * FROM a JOIN b ON a.x = b.x" in
  check_int "one join" 1 (List.length q.A.from_rest);
  check "alias defaults to table" true (q.A.from_first.A.alias = "a");
  check "select star" true (q.A.select = [ A.Star ])

let test_parse_join_kinds () =
  let kinds src =
    List.map (fun (j : A.join) -> j.A.kind) (Pa.parse src).A.from_rest
  in
  check "all kinds" true
    (kinds
       "SELECT * FROM a JOIN b ON a.x=b.x LEFT JOIN c ON a.x=c.x \
        LEFT OUTER JOIN d ON a.x=d.x FULL JOIN e ON a.x=e.x \
        SEMI JOIN f ON a.x=f.x ANTI JOIN g ON a.x=g.x INNER JOIN h ON a.x=h.x"
    = A.[ Inner; Left_outer; Left_outer; Full_outer; Semi; Anti; Inner ])

let test_parse_comma_join () =
  let q = Pa.parse "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y" in
  check_int "two comma joins" 2 (List.length q.A.from_rest);
  check "no ON" true
    (List.for_all (fun (j : A.join) -> j.A.on = None) q.A.from_rest);
  check "where present" true (q.A.where <> None)

let test_parse_aliases () =
  let q = Pa.parse "SELECT o.x FROM orders AS o JOIN customer c ON o.k = c.k" in
  check "AS alias" true (q.A.from_first.A.alias = "o");
  check "bare alias" true
    ((List.hd q.A.from_rest).A.item.A.alias = "c")

let test_parse_pred_precedence () =
  let q = Pa.parse "SELECT * FROM a, b WHERE a.x = 1 AND a.y = 2 OR b.z = 3" in
  (* AND binds tighter than OR *)
  (match q.A.where with
  | Some (A.Or (A.And _, _)) -> ()
  | _ -> Alcotest.fail "expected Or(And(..), ..)");
  let q2 = Pa.parse "SELECT * FROM a, b WHERE a.x = 1 AND (a.y = 2 OR b.z = 3)" in
  match q2.A.where with
  | Some (A.And (_, A.Or _)) -> ()
  | _ -> Alcotest.fail "expected And(.., Or(..))"

let test_parse_arith () =
  let q = Pa.parse "SELECT * FROM a, b WHERE a.x + b.y * 2 = 7" in
  match q.A.where with
  | Some (A.Cmp (A.Eq, A.Add (_, A.Mul _), A.Int 7)) -> ()
  | _ -> Alcotest.fail "expected a.x + (b.y * 2) = 7"

let test_parse_errors () =
  let bad src =
    try ignore (Pa.parse src); false with Pa.Error _ -> true
  in
  check "missing FROM" true (bad "SELECT *");
  check "left join needs ON" true (bad "SELECT * FROM a LEFT JOIN b");
  check "trailing junk" true (bad "SELECT * FROM a JOIN b ON a.x=b.x extra stuff");
  check "bad predicate" true (bad "SELECT * FROM a, b WHERE a.x ++ b.y")

(* ---------- binder ---------- *)

let bind_ok src =
  match B.parse_and_bind src with
  | Ok b -> b
  | Error msg -> Alcotest.failf "bind failed: %s" msg

let test_bind_numbering () =
  let b = bind_ok "SELECT * FROM a JOIN b ON a.x=b.x JOIN c ON b.y=c.y" in
  check "numbered left to right" true
    (b.B.aliases = [ ("a", 0); ("b", 1); ("c", 2) ]);
  check "valid tree" true (Ot.validate b.B.tree = Ok ());
  check "left deep" true (Ot.is_left_deep b.B.tree);
  check "alias lookup" true (B.node_of_alias b "c" = Some 2);
  check "unknown alias" true (B.node_of_alias b "zz" = None)

let test_bind_where_attachment () =
  let b = bind_ok "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y" in
  (* conjuncts land on the joins where their tables first meet *)
  (match b.B.tree with
  | Ot.Node top ->
      check "top pred references b,c" true
        (Ns.equal
           (Relalg.Predicate.free_tables top.pred)
           (Ns.of_list [ 1; 2 ]));
      (match top.left with
      | Ot.Node inner ->
          check "inner pred references a,b" true
            (Ns.equal
               (Relalg.Predicate.free_tables inner.pred)
               (Ns.of_list [ 0; 1 ]))
      | Ot.Leaf _ -> Alcotest.fail "shape")
  | Ot.Leaf _ -> Alcotest.fail "shape")

let test_bind_where_simplifies_outer_join () =
  (* WHERE strong on the padded side upgrades the LEFT JOIN *)
  let b =
    bind_ok "SELECT * FROM a LEFT JOIN b ON a.x = b.x WHERE b.y = 1"
  in
  match b.B.tree with
  | Ot.Node n -> check "upgraded to inner" true (n.op.Op.kind = Op.Inner)
  | Ot.Leaf _ -> Alcotest.fail "shape"

let test_bind_where_keeps_outer_join () =
  (* WHERE on the preserved side must not upgrade; filters over the
     preserved side of a left join are unsupported and must error,
     never silently change semantics *)
  match B.parse_and_bind "SELECT * FROM a LEFT JOIN b ON a.x = b.x WHERE a.y = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unsupported-filter error"

let test_bind_errors () =
  let err src =
    match B.parse_and_bind src with Error _ -> true | Ok _ -> false
  in
  check "duplicate alias" true (err "SELECT * FROM a, a");
  check "unknown alias in pred" true
    (err "SELECT * FROM a, b WHERE a.x = zz.y");
  check "unqualified ambiguous" true (err "SELECT * FROM a, b WHERE x = 1")

let test_bind_unqualified_single_table () =
  (* with one table, unqualified columns resolve to it; but a WHERE on
     a single-table query has no join to attach to, so it must be
     rejected rather than dropped *)
  match B.parse_and_bind "SELECT * FROM a WHERE x = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for filter without join"

let test_bind_semi_anti () =
  let b =
    bind_ok "SELECT * FROM a SEMI JOIN b ON a.x=b.x ANTI JOIN c ON a.y=c.y"
  in
  let kinds =
    List.map
      (fun (n : Ot.node) -> n.op.Op.kind)
      (Ot.operators b.B.tree)
  in
  check "semi then anti" true (kinds = [ Op.Left_semi; Op.Left_anti ])

let test_exists_parse () =
  let q =
    Pa.parse
      "SELECT * FROM a WHERE EXISTS (SELECT * FROM b WHERE b.x = a.x) \
       AND NOT EXISTS (SELECT 1 FROM c WHERE c.y = a.y)"
  in
  match q.A.where with
  | Some (A.And (A.Exists e1, A.Exists e2)) ->
      check "first not negated" false e1.A.negated;
      check "second negated" true e2.A.negated;
      check "tables" true (e1.A.item.A.table = "b" && e2.A.item.A.table = "c");
      check "inner where present" true (e1.A.inner_where <> None)
  | _ -> Alcotest.fail "expected two EXISTS conjuncts"

let test_exists_bind () =
  let b =
    bind_ok
      "SELECT * FROM a JOIN b ON a.k = b.k \
       WHERE EXISTS (SELECT * FROM v WHERE v.k = a.k) \
       AND NOT EXISTS (SELECT * FROM w WHERE w.k = b.k)"
  in
  (* v and w numbered after the FROM items *)
  check "v index" true (B.node_of_alias b "v" = Some 2);
  check "w index" true (B.node_of_alias b "w" = Some 3);
  let kinds =
    List.map (fun (n : Ot.node) -> n.op.Op.kind) (Ot.operators b.B.tree)
  in
  check "join, semi, anti" true
    (kinds = [ Op.Inner; Op.Left_semi; Op.Left_anti ]);
  check "valid" true (Ot.validate b.B.tree = Ok ())

let test_exists_errors () =
  let err src =
    match B.parse_and_bind src with Error _ -> true | Ok _ -> false
  in
  check "EXISTS under OR rejected" true
    (err "SELECT * FROM a, b WHERE a.x = b.x OR EXISTS (SELECT * FROM c WHERE c.y = a.y)");
  check "alias clash rejected" true
    (err "SELECT * FROM a WHERE EXISTS (SELECT * FROM a WHERE a.x = 1)")

let test_exists_execution () =
  (* unnested EXISTS must mean SQL EXISTS: execute and compare against
     a manual semijoin tree *)
  let b =
    bind_ok "SELECT * FROM a JOIN b ON a.k = b.k WHERE EXISTS (SELECT * FROM v WHERE v.k = a.k)"
  in
  let tree = b.B.tree in
  let analysis = Conflicts.Analysis.analyze (Conflicts.Simplify.simplify tree) in
  let g = Conflicts.Derive.hypergraph analysis in
  match (Core.Optimizer.run Core.Optimizer.Dphyp g).plan with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let inst = Executor.Instance.for_tree ~seed:55 ~rows:8 ~domain:4 tree in
      let u = Executor.Exec.output_tables tree in
      Alcotest.(check (list int)) "exists table not in output" [ 0; 1 ] u;
      check "plan equivalent" true
        (Executor.Bag.equal ~universe:u
           (Executor.Exec.eval inst tree)
           (Executor.Exec.eval inst (Plans.Plan.to_optree g plan)))

(* ---------- fuzzing ---------- *)

let prop_parser_never_crashes =
  (* random token soup must either parse or raise Parser.Error /
     produce a binder error — never crash with something else *)
  let vocab =
    [|
      "SELECT"; "FROM"; "WHERE"; "JOIN"; "LEFT"; "FULL"; "OUTER"; "SEMI";
      "ANTI"; "ON"; "AND"; "OR"; "NOT"; "EXISTS"; "AS"; "a"; "b"; "c"; "t1";
      "x"; "y"; "("; ")"; ","; "."; "="; "<"; "<="; "<>"; "+"; "-"; "*";
      "42"; "'s'"; ";";
    |]
  in
  QCheck.Test.make ~name:"parser+binder never crash on token soup" ~count:800
    QCheck.(pair (int_bound 10_000) (int_range 1 25))
    (fun (seed, len) ->
      let rng = Random.State.make [| seed; len |] in
      let src =
        String.concat " "
          ("SELECT"
          :: List.init len (fun _ ->
                 vocab.(Random.State.int rng (Array.length vocab))))
      in
      match B.parse_and_bind src with
      | Ok _ | Error _ -> true
      | exception Pa.Error _ -> true
      | exception _ -> false)

let prop_wellformed_roundtrip =
  (* pretty-printing a parsed query and re-parsing it yields the same
     AST (idempotence of the concrete syntax) *)
  let sources =
    [|
      "SELECT * FROM a JOIN b ON a.x = b.x";
      "SELECT a.x, b.y FROM a, b WHERE a.x = b.y AND a.z = 3";
      "SELECT * FROM a LEFT JOIN b ON a.x = b.x FULL JOIN c ON b.y = c.y";
      "SELECT * FROM a SEMI JOIN b ON a.x = b.x ANTI JOIN c ON a.y = c.y";
      "SELECT * FROM a WHERE EXISTS (SELECT * FROM v WHERE v.k = a.k)";
      "SELECT * FROM a, b WHERE a.x + b.y * 2 <= 7 OR a.z <> b.z";
    |]
  in
  QCheck.Test.make ~name:"pp/parse roundtrip" ~count:(Array.length sources)
    QCheck.(int_bound (Array.length sources - 1))
    (fun i ->
      let q = Pa.parse sources.(i) in
      let printed = Format.asprintf "%a" A.pp_query q in
      Pa.parse printed = q)

(* ---------- one-pass WHERE attachment vs. the per-conjunct walk ---------- *)

(* The binder as it stood before WHERE conjuncts were attached in one
   pass: each conjunct walks the tree on its own, recomputing every
   operator's tables.  Kept as the reference the one-pass attachment
   must reproduce, bound tree and error message alike. *)
module Reference = struct
  module Ast = Sqlfront.Ast
  module P = Relalg.Predicate

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
         the WHERE predicate. *)
      let tree =
        match where_conjs with
        | [] -> !tree
        | conjs -> (
            let wrapped =
              Ot.op Relalg.Operator.join (P.conj conjs) !tree
                (Ot.leaf (Array.length tables) "<where>")
            in
            match Conflicts.Simplify.simplify wrapped with
            | Ot.Node n -> n.left
            | Ot.Leaf _ -> assert false)
      in
      (* Attach each WHERE conjunct at the first operator where its
         tables are in scope — it must be an inner join there, else the
         filter over a padding/filtering operator has no sound home. *)
      let attach tree p =
        let ft = P.free_tables p in
        let rec go t =
          match t with
          | Ot.Leaf _ -> None
          | Ot.Node n -> (
              match go n.left with
              | Some left -> Some (Ot.Node { n with left })
              | None -> (
                  match go n.right with
                  | Some right -> Some (Ot.Node { n with right })
                  | None ->
                      if Ns.subset ft (Ot.tables t) then
                        if n.op.Relalg.Operator.kind = Relalg.Operator.Inner
                        then Some (Ot.Node { n with pred = P.And (n.pred, p) })
                        else
                          fail
                            "WHERE predicate %s applies across a %s and is not \
                             null-rejecting enough to simplify it; unsupported"
                            (P.to_string p)
                            (Relalg.Operator.symbol n.op)
                      else None))
        in
        match go tree with
        | Some t -> t
        | None ->
            fail "WHERE predicate %s references unknown tables" (P.to_string p)
      in
      let tree = List.fold_left attach tree where_conjs in
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
      Ok tree
    with Bind_error msg -> Error msg
end


(* Random queries over 2-7 tables: comma joins and INNER/LEFT/FULL/
   SEMI/ANTI joins with ON clauses, and WHERE clauses mixing one-,
   two- and three-table conjuncts (cycle-closing ones included), OR
   terms, an occasional EXISTS, and conjuncts that must fail: unknown
   aliases, filters on the preserved side of an outer join,
   single-table queries with a filter. *)
let random_query rng =
  let module R = Random.State in
  let n = 1 + R.int rng 7 in
  let t i = Printf.sprintf "t%d" i in
  let col i = Printf.sprintf "%s.c%d" (t i) (R.int rng 3) in
  let from =
    String.concat " "
      (List.init n (fun i ->
           let item = Printf.sprintf "r%d %s" i (t i) in
           if i = 0 then item
           else
             match R.int rng 6 with
             | 0 -> ", " ^ item
             | k ->
                 let kind =
                   [| "JOIN"; "LEFT JOIN"; "FULL JOIN"; "SEMI JOIN"; "ANTI JOIN" |]
                 in
                 Printf.sprintf "%s %s ON %s = %s" kind.(k - 1) item
                   (col (R.int rng i)) (col i)))
  in
  let conjunct () =
    let any () = R.int rng n in
    match R.int rng 12 with
    | 0 -> Printf.sprintf "%s = %d" (col (any ())) (R.int rng 9)
    | 1 -> Printf.sprintf "%s = %s" (col 0) (col (n - 1))
    | 2 | 3 ->
        Printf.sprintf "%s + %s = %s" (col (any ())) (col (any ())) (col (any ()))
    | 4 -> Printf.sprintf "(%s = 1 OR %s = 2)" (col (any ())) (col (any ()))
    | 5 -> Printf.sprintf "zz.c0 = %s" (col (any ()))
    | 6 ->
        Printf.sprintf "EXISTS (SELECT * FROM e e WHERE e.k = %s)" (col (any ()))
    | _ -> Printf.sprintf "%s = %s" (col (any ())) (col (any ()))
  in
  let where =
    match R.int rng 5 with
    | 0 -> ""
    | k ->
        " WHERE " ^ String.concat " AND " (List.init k (fun _ -> conjunct ()))
  in
  Printf.sprintf "SELECT * FROM %s%s" from where

let prop_where_one_pass =
  QCheck.Test.make ~name:"one-pass WHERE = per-conjunct walk" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = random_query (Random.State.make [| seed |]) in
      let q = Pa.parse src in
      let show = function
        | Ok t -> "ok " ^ Ot.to_string t
        | Error m -> "error " ^ m
      in
      let got = Result.map (fun (b : B.bound) -> b.tree) (B.bind q) in
      let want = Reference.bind q in
      got = want
      || QCheck.Test.fail_reportf "%s@.one pass: %s@.reference: %s" src
           (show got) (show want))

(* ---------- full pipeline sanity ---------- *)

let test_pipeline_execution_equivalence () =
  let b =
    bind_ok
      "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y \
       FULL JOIN d ON a.z = d.z"
  in
  let tree = Conflicts.Simplify.simplify b.B.tree in
  let analysis = Conflicts.Analysis.analyze tree in
  let g = Conflicts.Derive.hypergraph analysis in
  match (Core.Optimizer.run Core.Optimizer.Dphyp g).plan with
  | None -> Alcotest.fail "no plan"
  | Some plan ->
      let inst = Executor.Instance.for_tree ~seed:77 tree in
      let u = Executor.Exec.output_tables tree in
      check "sql plan equivalent on data" true
        (Executor.Bag.equal ~universe:u
           (Executor.Exec.eval inst tree)
           (Executor.Exec.eval inst (Plans.Plan.to_optree g plan)))

let () =
  Alcotest.run "sqlfront"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "case insensitive" `Quick
            test_lexer_case_insensitive_keywords;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "join kinds" `Quick test_parse_join_kinds;
          Alcotest.test_case "comma joins" `Quick test_parse_comma_join;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "precedence" `Quick test_parse_pred_precedence;
          Alcotest.test_case "arithmetic" `Quick test_parse_arith;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "binder",
        [
          Alcotest.test_case "numbering" `Quick test_bind_numbering;
          Alcotest.test_case "where attachment" `Quick test_bind_where_attachment;
          Alcotest.test_case "where simplifies louter" `Quick
            test_bind_where_simplifies_outer_join;
          Alcotest.test_case "where on preserved side" `Quick
            test_bind_where_keeps_outer_join;
          Alcotest.test_case "errors" `Quick test_bind_errors;
          Alcotest.test_case "single table filter" `Quick
            test_bind_unqualified_single_table;
          Alcotest.test_case "semi/anti" `Quick test_bind_semi_anti;
          QCheck_alcotest.to_alcotest prop_where_one_pass;
        ] );
      ( "exists",
        [
          Alcotest.test_case "parse" `Quick test_exists_parse;
          Alcotest.test_case "bind" `Quick test_exists_bind;
          Alcotest.test_case "errors" `Quick test_exists_errors;
          Alcotest.test_case "execution" `Quick test_exists_execution;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_parser_never_crashes;
          QCheck_alcotest.to_alcotest prop_wellformed_roundtrip;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "execution equivalence" `Quick
            test_pipeline_execution_equivalence;
        ] );
    ]
