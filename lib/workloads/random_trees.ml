module Ot = Relalg.Optree
module P = Relalg.Predicate
module Op = Relalg.Operator
module Ns = Nodeset.Node_set

(* Build a random bushy tree over the leaf interval [lo, hi]: split at
   a random point, recurse.  Leaves stay in increasing order left to
   right, satisfying the Section 5.4 numbering by construction. *)
let random_tree ~seed ~n ~ops =
  if n < 2 then invalid_arg "Random_trees.random_tree: n must be >= 2";
  if ops = [] then invalid_arg "Random_trees.random_tree: empty operator set";
  let rng = Random.State.make [| 1009; seed |] in
  let ops = Array.of_list ops in
  let agg_counter = ref 0 in
  let pick rng l = List.nth l (Random.State.int rng (List.length l)) in
  (* [build] returns the subtree together with the tables whose
     original attributes are still visible in its output — semijoins,
     antijoins and nestjoins consume their right side, and predicates
     above must not reference consumed attributes (Figure 9's "lhs not
     possible" cases describe exactly such ill-formed expressions). *)
  let rec build lo hi =
    if lo = hi then (Ot.leaf lo (Printf.sprintf "R%d" lo), [ lo ])
    else begin
      let split = lo + Random.State.int rng (hi - lo) in
      let left, avail_l = build lo split in
      let right, avail_r = build (split + 1) hi in
      let op = ops.(Random.State.int rng (Array.length ops)) in
      let lt = pick rng avail_l and rt = pick rng avail_r in
      let pred = P.eq_cols lt "v" rt "v" in
      let aggs =
        if op.Op.kind = Op.Left_nest then begin
          incr agg_counter;
          [ Relalg.Aggregate.count (Printf.sprintf "cnt%d_%d" seed !agg_counter) ]
        end
        else []
      in
      let avail =
        match op.Op.kind with
        | Op.Inner | Op.Left_outer | Op.Full_outer -> avail_l @ avail_r
        | Op.Left_semi | Op.Left_anti | Op.Left_nest -> avail_l
      in
      (Ot.op ~aggs op pred left right, avail)
    end
  in
  let t, _avail = build 0 (n - 1) in
  (match Ot.validate t with
  | Ok () -> ()
  | Error e -> failwith ("Random_trees: generated invalid tree: " ^ Ot.error_to_string e));
  t
