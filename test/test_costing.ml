(* Cardinality-estimation and cost-model tests. *)

module C = Costing.Cardinality
module Cm = Costing.Cost_model
module Op = Relalg.Operator
module He = Hypergraph.Hyperedge
module Ns = Nodeset.Node_set

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_inner () =
  checkf "l*r*sel" 500.0 (C.estimate Op.join 100.0 50.0 0.1);
  checkf "floor at 1" 1.0 (C.estimate Op.join 10.0 10.0 0.0000001)

let test_left_outer () =
  (* every left tuple survives *)
  checkf "dominated by inner" 500.0 (C.estimate Op.left_outer 100.0 50.0 0.1);
  checkf "at least l" 100.0 (C.estimate Op.left_outer 100.0 50.0 0.00001)

let test_full_outer () =
  (* sparse: both sides survive *)
  let v = C.estimate Op.full_outer 100.0 50.0 0.0000001 in
  check "at least l" true (v >= 100.0);
  check "at least r" true (v >= 50.0);
  (* dense: inner dominates *)
  checkf "dense" 500.0 (C.estimate Op.full_outer 100.0 50.0 0.1)

let test_semi () =
  checkf "fraction of left" 50.0 (C.estimate Op.left_semi 100.0 5.0 0.1);
  checkf "capped at l" 100.0 (C.estimate Op.left_semi 100.0 500.0 0.9);
  check "never exceeds l" true
    (List.for_all
       (fun sel -> C.estimate Op.left_semi 100.0 1000.0 sel <= 100.0)
       [ 0.001; 0.01; 0.1; 0.99 ])

let test_anti () =
  checkf "complement of semi" 50.0 (C.estimate Op.left_anti 100.0 5.0 0.1);
  checkf "floor 1" 1.0 (C.estimate Op.left_anti 100.0 1000.0 0.9);
  (* semi + anti ≈ l when unclamped *)
  let semi = C.estimate Op.left_semi 100.0 5.0 0.1 in
  let anti = C.estimate Op.left_anti 100.0 5.0 0.1 in
  checkf "semi+anti=l" 100.0 (semi +. anti)

let test_nest () =
  checkf "one group per left tuple" 100.0 (C.estimate Op.left_nest 100.0 999.0 0.5)

let test_dependent_same () =
  List.iter
    (fun kind ->
      let reg = Op.make kind and dep = Op.make ~dependent:true kind in
      checkf (Op.symbol reg) (C.estimate reg 80.0 40.0 0.2)
        (C.estimate dep 80.0 40.0 0.2))
    [ Op.Inner; Op.Left_outer; Op.Left_semi; Op.Left_anti; Op.Left_nest ]

let test_monotone_in_inputs () =
  (* bigger inputs never shrink the estimate *)
  List.iter
    (fun op ->
      check (Op.symbol op ^ " monotone") true
        (C.estimate op 200.0 50.0 0.1 >= C.estimate op 100.0 50.0 0.1))
    Op.[ join; left_outer; full_outer; left_semi; left_nest ]

let test_selectivity_product () =
  let e sel id = (He.make ~sel ~id (Ns.singleton 0) (Ns.singleton 1), ()) in
  checkf "empty product" 1.0 (C.selectivity_product []);
  checkf "product" 0.02 (C.selectivity_product [ e 0.1 0; e 0.2 1 ])

let test_cout () =
  checkf "cout = out_card" 42.0
    (Cm.op_cost Cm.c_out Op.join ~left_card:10.0 ~right_card:10.0 ~out_card:42.0)

let test_cmm () =
  (* inner join picks min(NLJ, hash) *)
  let inner = Cm.op_cost Cm.c_mm Op.join ~left_card:10.0 ~right_card:10.0 ~out_card:5.0 in
  check "inner <= nlj" true (inner <= (10.0 *. 10.0) +. 5.0);
  check "inner <= hash" true (inner <= (1.2 *. 10.0) +. 10.0 +. 5.0);
  (* tiny inputs: NLJ wins; huge inputs: hash wins *)
  let tiny = Cm.op_cost Cm.c_mm Op.join ~left_card:2.0 ~right_card:2.0 ~out_card:1.0 in
  checkf "nlj for tiny" 5.0 tiny;
  let big = Cm.op_cost Cm.c_mm Op.join ~left_card:1e6 ~right_card:1e6 ~out_card:1.0 in
  checkf "hash for big" ((1.2 *. 1e6) +. 1e6 +. 1.0) big;
  (* non-inner operators always pay the hash price *)
  checkf "louter hash" ((1.2 *. 2.0) +. 2.0 +. 1.0)
    (Cm.op_cost Cm.c_mm Op.left_outer ~left_card:2.0 ~right_card:2.0 ~out_card:1.0)

(* The DP core's allocation-free pricing must agree bit for bit with
   the float-argument functions a plan is built with. *)
let test_price () =
  let bits = Int64.bits_of_float in
  List.iter
    (fun (m : Cm.t) ->
      List.iter
        (fun op ->
          let c = Costing.Candidate.create () in
          c.left_card <- 120.0;
          c.left_cost <- 7.5;
          c.right_card <- 3000.0;
          c.right_cost <- 11.25;
          c.sel <- 0.003;
          Cm.price m op c;
          let card = C.estimate op 120.0 3000.0 0.003 in
          let cost =
            7.5 +. 11.25
            +. Cm.op_cost m op ~left_card:120.0 ~right_card:3000.0 ~out_card:card
          in
          check (m.Cm.name ^ " " ^ Op.symbol op) true
            (bits c.card = bits card && bits c.cost = bits cost))
        Op.[ join; left_outer; full_outer; left_semi; left_anti; left_nest ])
    [ Cm.c_out; Cm.c_mm ]

let test_q_error () =
  let q = Costing.Cardinality.q_error in
  check "overestimate" true (q ~est:20.0 ~actual:5.0 = Some 4.0);
  check "underestimate symmetric" true (q ~est:5.0 ~actual:20.0 = Some 4.0);
  check "perfect" true (q ~est:7.0 ~actual:7.0 = Some 1.0);
  check "never below 1" true
    (match q ~est:3.0 ~actual:4.0 with Some v -> v >= 1.0 | None -> false);
  (* NULL-safe: an empty actual (or estimate) has no defined ratio *)
  check "zero actual" true (q ~est:10.0 ~actual:0.0 = None);
  check "zero estimate" true (q ~est:0.0 ~actual:10.0 = None);
  check "negative rejected" true (q ~est:(-1.0) ~actual:5.0 = None);
  check "nan rejected" true (q ~est:Float.nan ~actual:5.0 = None)

let test_by_name () =
  check "cout" true (match Cm.by_name "cout" with Some m -> m.Cm.name = "cout" | None -> false);
  check "cmm" true (match Cm.by_name "cmm" with Some m -> m.Cm.name = "cmm" | None -> false);
  check "unknown" true (Cm.by_name "nope" = None)

let () =
  Alcotest.run "costing"
    [
      ( "cardinality",
        [
          Alcotest.test_case "inner" `Quick test_inner;
          Alcotest.test_case "left outer" `Quick test_left_outer;
          Alcotest.test_case "full outer" `Quick test_full_outer;
          Alcotest.test_case "semijoin" `Quick test_semi;
          Alcotest.test_case "antijoin" `Quick test_anti;
          Alcotest.test_case "nestjoin" `Quick test_nest;
          Alcotest.test_case "dependent = regular" `Quick test_dependent_same;
          Alcotest.test_case "monotone" `Quick test_monotone_in_inputs;
          Alcotest.test_case "selectivity product" `Quick test_selectivity_product;
          Alcotest.test_case "q-error" `Quick test_q_error;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "c_out" `Quick test_cout;
          Alcotest.test_case "c_mm" `Quick test_cmm;
          Alcotest.test_case "price" `Quick test_price;
          Alcotest.test_case "by_name" `Quick test_by_name;
        ] );
    ]
