(* Plan construction, DP table semantics, and plan → operator-tree
   re-materialization. *)

module Ns = Nodeset.Node_set
module P = Plans.Plan
module Dp = Plans.Dp_table
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let graph3 () =
  G.make
    [|
      G.base_rel ~card:100.0 "A";
      G.base_rel ~card:200.0 "B";
      G.base_rel ~card:300.0 "C";
    |]
    [|
      He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~sel:0.1 ~id:0 0 1;
      He.simple ~pred:(Relalg.Predicate.eq_cols 1 "y" 2 "y") ~sel:0.5 ~id:1 1 2;
    |]

let test_scan () =
  let g = graph3 () in
  let p = P.scan g 1 in
  checkf "card from catalog" 200.0 p.P.card;
  checkf "scan cost 0" 0.0 p.P.cost;
  Alcotest.(check (list int)) "set" [ 1 ] (Ns.to_list p.P.set)

let test_join_costs () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ]
      ~sel:0.1 a b
  in
  checkf "card" 2000.0 j.P.card;
  checkf "cout cost = out card" 2000.0 j.P.cost;
  Alcotest.(check (list int)) "set union" [ 0; 1 ] (Ns.to_list j.P.set);
  (* costs accumulate through children *)
  let c = P.scan g 2 in
  let top =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ]
      ~sel:0.5 j c
  in
  checkf "accumulated" (2000.0 +. (2000.0 *. 300.0 *. 0.5)) top.P.cost

(* A priced candidate joining [a] and [b], as the emitter offers it. *)
let candidate (p : P.t) =
  let c = Costing.Candidate.create () in
  c.cost <- p.P.cost;
  c.card <- p.P.card;
  c

let test_dp_table () =
  let g = graph3 () in
  let dp = Dp.create_for g in
  check "empty find" true (Dp.find dp (Ns.singleton 0) = None);
  Dp.leaf dp 0 ~cost:0.0;
  Dp.leaf dp 1 ~cost:0.0;
  check_int "leaf 0 seeded first has id 0" 0 (Dp.id dp (Ns.singleton 0));
  check_int "size" 2 (Dp.size dp);
  let a = P.scan g 0 and b = P.scan g 1 in
  let expensive =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.9 a b
  in
  let cheap =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b
  in
  let offer p left =
    let i = Dp.offer dp (candidate p) (Dp.id dp p.P.set) p.P.set ~left ~code:0 in
    check_int "offer returns the set's id" (Dp.id dp p.P.set) i
  in
  let ab = cheap.P.set in
  offer expensive a.P.set;
  checkf "first install" expensive.P.cost (Dp.cost dp ab);
  offer cheap b.P.set;
  checkf "cheaper replaces" cheap.P.cost (Dp.cost dp ab);
  offer expensive a.P.set;
  checkf "worse rejected" cheap.P.cost (Dp.cost dp ab);
  offer cheap a.P.set;
  let best = Dp.best dp ab in
  checkf "kept the cheap one" cheap.P.cost best.P.cost;
  (match best.P.tree with
  | P.Join j ->
      check "equal cost keeps the first split" true (Ns.equal j.P.left.P.set b.P.set);
      Alcotest.(check (list int)) "edges recomputed" [ 0 ] j.P.edge_ids;
      checkf "selectivity recomputed" 0.1 j.P.sel
  | _ -> Alcotest.fail "expected a join");
  check_int "one pair entry" 1 (List.length (Dp.sets_of_size dp 2));
  check_int "two singletons" 2 (List.length (Dp.sets_of_size dp 1));
  Alcotest.check_raises "best missing" Not_found (fun () ->
      ignore (Dp.best dp (Ns.singleton 2)))

let test_size_buckets () =
  let g = graph3 () in
  let dp = Dp.create_for g in
  for v = 0 to 2 do
    Dp.leaf dp v ~cost:(float_of_int v)
  done;
  Alcotest.(check (list int)) "all singletons, newest first" [ 2; 1; 0 ]
    (List.map Ns.min_elt (Dp.sets_of_size dp 1));
  (match Dp.best dp (Ns.singleton 2) with
  | { P.tree = P.Scan 2; card; cost; _ } ->
      checkf "leaf card from the graph" 300.0 card;
      checkf "leaf cost as installed" 2.0 cost
  | _ -> Alcotest.fail "expected a scan of R2");
  check_int "no size-2 entries" 0 (List.length (Dp.sets_of_size dp 2))

let test_to_optree () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  let t = P.to_optree g j2 in
  check_int "two ops" 2 (Relalg.Optree.num_ops t);
  (match t with
  | Relalg.Optree.Node n ->
      check "root pred is edge 1's" true
        (n.Relalg.Optree.pred = (G.edge g 1).He.pred)
  | Relalg.Optree.Leaf _ -> Alcotest.fail "expected node");
  Alcotest.(check (list int)) "tables preserved" [ 0; 1; 2 ]
    (Ns.to_list (Relalg.Optree.tables t))

let test_to_optree_cross_product () =
  (* edge_ids = [] (GOO cross-product fallback) must yield True_ *)
  let g = graph3 () in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[]
      ~sel:1.0 (P.scan g 0) (P.scan g 2)
  in
  match P.to_optree g j with
  | Relalg.Optree.Node n ->
      check "true pred" true (n.Relalg.Optree.pred = Relalg.Predicate.True_)
  | Relalg.Optree.Leaf _ -> Alcotest.fail "expected node"

let test_plan_check_ok () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  Alcotest.(check (list string)) "clean plan has no issues" []
    (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g j2))

let test_plan_check_catches_missing_edge () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  (* join A-B with its edge, then attach C with NO edge: edge 1 is
     covered by the root but never applied *)
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[] ~sel:1.0 j1 c in
  check "missing edge detected" true
    (List.exists
       (function Plans.Plan_check.Edge_missed _ -> true | _ -> false)
       (Plans.Plan_check.check g j2))

let test_plan_check_catches_duplicate_edge () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let j1 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0; 1 ] ~sel:0.1 a b in
  (* edge 1 does not even touch {A,B}; it is also re-applied above *)
  let j2 = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 1 ] ~sel:0.5 j1 c in
  let issues = Plans.Plan_check.check g j2 in
  check "duplicate detected" true
    (List.exists
       (function Plans.Plan_check.Edge_duplicated _ -> true | _ -> false)
       issues);
  check "non-connecting detected" true
    (List.exists
       (function Plans.Plan_check.Edge_not_connecting _ -> true | _ -> false)
       issues)

(* Plans no longer record the edges they applied: a plan over [s] has
   applied exactly the edges covered by [s], each at the first join
   that covers it.  Plan_check must see that on the same plans. *)
let test_plan_check_applied_tracking () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 in
  let j = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ] ~sel:0.1 a b in
  let no_issues msg p =
    Alcotest.(check (list string)) msg []
      (List.map Plans.Plan_check.issue_to_string (Plans.Plan_check.check g p))
  in
  no_issues "edge applied once" j;
  no_issues "scan applies nothing" a;
  Alcotest.(check (list int)) "applied at its first covering join" [ 0 ]
    (P.applied_edges g a.P.set b.P.set);
  (* the optimizer's plan: every join applies exactly the edges it is
     the first to cover *)
  let plan = Option.get (Core.Dphyp.solve g) in
  no_issues "optimized plan" plan;
  let rec firsts (p : P.t) =
    match p.P.tree with
    | P.Join j ->
        j.P.edge_ids = P.applied_edges g j.P.left.P.set j.P.right.P.set
        && firsts j.P.left && firsts j.P.right
    | P.Scan _ -> true
  in
  check "every join applies what it first covers" true (firsts plan)

(* IDP seeds a contracted node's leaf with the cost of the block plan
   it stands for.  A block plan that escapes unflattened keeps those
   leaves, and Plan_check must flag them; flattened, it is clean. *)
let test_plan_check_unflattened_block () =
  let g = Workloads.Shapes.chain 6 and model = Costing.Cost_model.c_out in
  let block st set =
    let counters = Core.Counters.create () in
    Option.get
      (Core.Idp.solve_block ~model ~counters st ~label:"" ~span:"" ~attrs:[]
         set (fun _ b -> b.Core.Idp.plan))
  in
  let st0 = Core.Idp.start g in
  let st = Core.Idp.contract ~model st0 (block st0 (Ns.of_list [ 0; 1 ])) in
  let cg = st.Core.Idp.graph in
  check "the contracted leaf costs something"
    true (st.Core.Idp.base.(0).P.cost > 0.0);
  let plan = block st (G.all_nodes cg) in
  check "unflattened block plan flagged" true
    (List.exists
       (function Plans.Plan_check.Bad_leaf _ -> true | _ -> false)
       (Plans.Plan_check.check cg plan));
  Alcotest.(check (list string)) "flattened plan is clean" []
    (List.map Plans.Plan_check.issue_to_string
       (Plans.Plan_check.check g (Core.Idp.flatten ~model st plan)))

let test_pp () =
  let g = graph3 () in
  let j =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.left_outer
      ~edge_ids:[ 0 ] ~sel:0.1 (P.scan g 0) (P.scan g 1)
  in
  Alcotest.(check string) "pp" "(R0 leftouter R1)" (P.to_string j)

(* ---------- Dp_table.offer displacement model (qcheck) ---------- *)

(* Reference model: a map subset -> cheapest cost seen.  An offer
   installs exactly when the set is absent or the candidate strictly
   improves, and the surviving entry must be the model's minimum —
   across the flat (n <= 18), hashed and wide (n > 62) indexes
   alike. *)
let qcheck_update_model =
  QCheck.Test.make ~name:"dp_table update displacement model (all stores)"
    ~count:60
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 6) (int_bound 999)))
    (fun ops ->
      List.for_all
        (fun n_rel ->
          let g =
            G.make
              (Array.init n_rel (fun i ->
                   G.base_rel ~card:10.0 (Printf.sprintf "Q%d" i)))
              [||]
          in
          let dp = Dp.create_for g in
          let model : (int, float) Hashtbl.t = Hashtbl.create 16 in
          List.for_all
            (fun (slot, c) ->
              let i = slot mod (n_rel - 1) in
              let sel = float_of_int (c + 1) /. 1000.0 in
              let p =
                P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join
                  ~edge_ids:[] ~sel (P.scan g i)
                  (P.scan g (i + 1))
              in
              let expected =
                match Hashtbl.find_opt model i with
                | None -> true
                | Some best -> p.P.cost < best
              in
              let id =
                Dp.offer dp (candidate p) (Dp.id dp p.P.set) p.P.set
                  ~left:(Ns.singleton i) ~code:0
              in
              if expected then Hashtbl.replace model i p.P.cost;
              Dp.cost dp p.P.set = Hashtbl.find model i
              && Dp.size dp = Hashtbl.length model
              && id = Dp.id dp p.P.set)
            ops)
        [ 3; 30; 80 ])

(* ---------- Dp_table chunk boundaries ---------- *)

(* The first [m] sets over [n] relations, singletons first, then by
   cardinality: each later set splits into its minimum and the rest,
   both already listed. *)
let sets_by_size n m =
  let rec combos k lo =
    if k = 0 then [ Ns.empty ]
    else if lo >= n then []
    else
      List.map (Ns.add lo) (combos (k - 1) (lo + 1)) @ combos k (lo + 1)
  in
  let rec take k acc =
    if List.length acc >= m || k > n then List.filteri (fun i _ -> i < m) acc
    else take (k + 1) (acc @ combos k 0)
  in
  take 1 []

(* A table of [m] entries over [n] relations (flat up to 18, hashed
   beyond), filled through [leaf] and [offer] and checked against an
   association list from set to (id, left, cost, card): the entry ids
   are insertion order across every chunk boundary, [offer] keeps the
   first of equal costs and takes a strictly cheaper one, and [id],
   [load], [cost], [find] and [sets_of_size] read back what went in. *)
let check_chunked_table ~n m =
  let g =
    G.make
      (Array.init n (fun i ->
           G.base_rel ~card:(float_of_int (10 + i)) (Printf.sprintf "Q%d" i)))
      [||]
  in
  let dp = Dp.create_for g in
  let name fmt = Printf.sprintf ("n=%d m=%d: " ^^ fmt) n m in
  let offer s ~left ~cost ~card =
    let c = Costing.Candidate.create () in
    c.cost <- cost;
    c.card <- card;
    Dp.offer dp c (Dp.id dp s) s ~left ~code:0
  in
  let reference =
    List.mapi
      (fun i s ->
        if Ns.is_singleton s then begin
          let v = Ns.min_elt s in
          let cost = if v mod 2 = 0 then 0.0 else float_of_int v in
          Dp.leaf dp v ~cost;
          (s, (i, Ns.empty, cost, G.cardinality g v))
        end
        else begin
          let left = Ns.min_set s and k = float_of_int i in
          check_int (name "install id") i
            (offer s ~left:(Ns.diff s left) ~cost:(k +. 0.5) ~card:k);
          (* an equal cost keeps the first split, a cheaper one wins *)
          check_int (name "rejected id") i (offer s ~left ~cost:(k +. 0.5) ~card:0.);
          let cost = if i mod 3 = 0 then k +. 0.25 else k +. 0.5 in
          if i mod 3 = 0 then
            check_int (name "displaced id") i (offer s ~left ~cost ~card:k);
          (s, (i, (if i mod 3 = 0 then left else Ns.diff s left), cost, k))
        end)
      (sets_by_size n m)
  in
  check_int (name "size") m (Dp.size dp);
  let cand = Costing.Candidate.create () in
  let entry = Array.of_list (List.map snd reference) in
  List.iter
    (fun (s, (i, left, cost, card)) ->
      let show = Ns.to_string s in
      check_int (name "id %s" show) i (Dp.id dp s);
      let _, _, cost2, card2 = entry.((i * 7) mod m) in
      Dp.load dp cand i ((i * 7) mod m);
      check (name "load %s" show) true
        (cand.left_cost = cost && cand.left_card = card
        && cand.right_cost = cost2 && cand.right_card = card2);
      check (name "cost %s" show) true (Dp.cost dp s = cost);
      match Dp.find dp s with
      | None -> Alcotest.failf "n=%d m=%d: no plan for %s" n m show
      | Some p ->
          check (name "plan of %s" show) true
            (Ns.equal p.P.set s && p.P.cost = cost && p.P.card = card);
          (match p.P.tree with
          | P.Scan v -> check (name "scan %s" show) true (Ns.equal s (Ns.singleton v))
          | P.Join j -> check (name "left of %s" show) true (Ns.equal j.P.left.P.set left)))
    reference;
  (match sets_by_size n (m + 1) with
  | l when List.length l > m ->
      check_int (name "absent set") (-1) (Dp.id dp (List.nth l m))
  | _ -> ());
  for k = 1 to n do
    let expected =
      List.rev (List.filter_map
        (fun (s, _) -> if Ns.cardinal s = k then Some (Ns.to_string s) else None)
        reference)
    in
    Alcotest.(check (list string))
      (name "sets of size %d, newest first" k)
      expected
      (List.map Ns.to_string (Dp.sets_of_size dp k))
  done;
  check (name "flat below 19 relations") (n <= Dp.flat_max_nodes)
    (Dp.hash_stats dp = None)

let test_chunk_boundaries () =
  List.iter
    (fun m ->
      check_chunked_table ~n:13 m;
      check_chunked_table ~n:20 m)
    [ 1; 63; 64; 65; 129; 4_100 ]

(* ---------- structural plan diff ---------- *)

module Pd = Plans.Plan_diff

let diff_plans () =
  let g = graph3 () in
  let a = P.scan g 0 and b = P.scan g 1 and c = P.scan g 2 in
  let jm = P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join in
  let p1 = jm ~edge_ids:[ 1 ] ~sel:0.5 (jm ~edge_ids:[ 0 ] ~sel:0.1 a b) c in
  let p2 = jm ~edge_ids:[ 0 ] ~sel:0.1 a (jm ~edge_ids:[ 1 ] ~sel:0.5 b c) in
  (p1, p2)

let test_plan_diff_align () =
  let p1, p2 = diff_plans () in
  let d = Pd.diff p1 p2 in
  (* {A},{B},{C} match; {A,B} left-only, {B,C} right-only; root differs
     in cost between the two association orders *)
  check_int "entries cover both trees" 6 (List.length d.Pd.entries);
  let div = Pd.divergent d in
  check "at least the two one-sided subtrees diverge" true
    (List.length div >= 2);
  (match Pd.first_divergence d with
  | Some e ->
      Alcotest.(check (list int)) "smallest divergence is {A,B}" [ 0; 1 ]
        (Ns.to_list e.Pd.set);
      check "left side present" true (e.Pd.left <> None);
      check "right side absent" true (e.Pd.right = None)
  | None -> Alcotest.fail "expected a divergence");
  checkf "left total" p1.P.cost d.Pd.left_total;
  checkf "right total" p2.P.cost d.Pd.right_total

let test_plan_diff_identical () =
  let p1, _ = diff_plans () in
  let d = Pd.diff p1 p1 in
  check "no divergence" true (Pd.first_divergence d = None);
  check "all matching" true (List.for_all Pd.matching d.Pd.entries)

let test_plan_diff_report () =
  let p1, p2 = diff_plans () in
  let s =
    Pd.report ~names:(fun i -> [| "A"; "B"; "C" |].(i))
      ~labels:("tier", "exact") p1 p2
  in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "labels shown" true (contains "tier" s && contains "exact" s);
  check "named sets shown" true (contains "{A,B}" s);
  check "totals line" true (contains "total cost" s)

(* ---------- DOT escaping of hostile relation names ---------- *)

let test_plan_dot_hostile_names () =
  let hostile = "ev\"il\\name\nx" in
  let g =
    G.make
      [| G.base_rel ~card:10.0 hostile; G.base_rel ~card:20.0 "ok" |]
      [| He.simple ~pred:(Relalg.Predicate.eq_cols 0 "x" 1 "x") ~sel:0.1 ~id:0 0 1 |]
  in
  let p =
    P.join Costing.Cost_model.c_out ~op:Relalg.Operator.join ~edge_ids:[ 0 ]
      ~sel:0.1 (P.scan g 0) (P.scan g 1)
  in
  let dot = Plans.Plan_dot.to_dot g p in
  (* the escaped label must be a well-formed quoted-string body: no
     raw newline, and every quote hidden behind a backslash *)
  let unescaped_quote s =
    let n = String.length s in
    let rec go i =
      i < n && (if s.[i] = '\\' then go (i + 2) else s.[i] = '"' || go (i + 1))
    in
    go 0
  in
  let esc = Hypergraph.Dot.escape_label hostile in
  check "no raw newline in escaped label" false (String.contains esc '\n');
  check "no unescaped quote in escaped label" false (unescaped_quote esc);
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "escaped quote present in dot" true (contains "ev\\\"il" dot);
  check "escaped newline present in dot" true (contains "\\n" dot);
  check "raw hostile name absent" true (not (contains hostile dot))

let () =
  Alcotest.run "plans"
    [
      ( "plan",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "join costs" `Quick test_join_costs;
          Alcotest.test_case "to_optree" `Quick test_to_optree;
          Alcotest.test_case "to_optree cross product" `Quick
            test_to_optree_cross_product;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "plan_check",
        [
          Alcotest.test_case "clean plan" `Quick test_plan_check_ok;
          Alcotest.test_case "missing edge" `Quick test_plan_check_catches_missing_edge;
          Alcotest.test_case "duplicate edge" `Quick
            test_plan_check_catches_duplicate_edge;
          Alcotest.test_case "applied tracking" `Quick
            test_plan_check_applied_tracking;
          Alcotest.test_case "unflattened block plan" `Quick
            test_plan_check_unflattened_block;
        ] );
      ( "dp_table",
        [
          Alcotest.test_case "update semantics" `Quick test_dp_table;
          Alcotest.test_case "size buckets" `Quick test_size_buckets;
          QCheck_alcotest.to_alcotest qcheck_update_model;
          Alcotest.test_case "chunk boundaries, flat and hashed" `Quick
            test_chunk_boundaries;
        ] );
      ( "plan_diff",
        [
          Alcotest.test_case "alignment" `Quick test_plan_diff_align;
          Alcotest.test_case "identical plans" `Quick test_plan_diff_identical;
          Alcotest.test_case "report rendering" `Quick test_plan_diff_report;
        ] );
      ( "plan_dot",
        [
          Alcotest.test_case "hostile names escaped" `Quick
            test_plan_dot_hostile_names;
        ] );
    ]
