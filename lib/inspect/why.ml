module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module Plan = Plans.Plan

(* "Why this plan": cost a user-forced join order against the full
   DPhyp memo and explain where (and by how much) it loses.

   The forced order is a parenthesized binary tree over relation
   names — "((A B) C)"; a flat list "A B C" is read left-deep.  Each
   forced join is built through Emit.candidates, i.e. under exactly
   the operator-recovery, dependent-switch and pending-predicate
   rules the enumerators use, so its cost is comparable
   apples-to-apples with the memo entries.

   The analysis walks the forced tree in postorder and charges every
   subtree S with its gap = cost_forced(S) - cost_best(S) (best from
   the DP table, which holds the optimum for every connected subset).
   The first postorder subtree with a positive gap is the "first
   divergence" — the smallest place the forced order already made a
   mistake.  local gap = gap(S) minus the children's gaps isolates
   what each individual join decision added on top of mistakes it
   inherited. *)

type order = Leaf of int | Node of order * order

type gap = {
  set : Ns.t;
  forced_cost : float;
  best_cost : float;
  total : float;  (* forced - best for this subtree *)
  local : float;  (* total minus the children's totals *)
}

type report = {
  graph : G.t;
  forced : Plan.t;
  optimal : Plan.t;
  gaps : gap list;  (* forced-tree joins, postorder *)
  first_divergence : gap option;
  diff : Plans.Plan_diff.t;  (* forced vs optimal, aligned by subtree *)
  provenance : Provenance.t;  (* the recorded memo behind the numbers *)
}

(* ---------- order parsing ---------- *)

type token = LP | RP | Atom of string

let tokenize s =
  let toks = ref [] and buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Atom (Buffer.contents buf) :: !toks;
      Buffer.clear buf
    end
  in
  String.iter
    (fun ch ->
      match ch with
      | '(' -> flush (); toks := LP :: !toks
      | ')' -> flush (); toks := RP :: !toks
      | ' ' | '\t' | '\n' | '\r' | ',' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !toks

let resolve_atom g a =
  let n = G.num_nodes g in
  let by_name = ref None in
  for i = 0 to n - 1 do
    if (G.relation g i).G.name = a then by_name := Some i
  done;
  match !by_name with
  | Some i -> Ok i
  | None -> (
      (* "R<k>" index form, for graphs with generated names *)
      match
        if String.length a > 1 && a.[0] = 'R' then
          int_of_string_opt (String.sub a 1 (String.length a - 1))
        else None
      with
      | Some k when k >= 0 && k < n -> Ok k
      | _ -> Error (Printf.sprintf "unknown relation %S" a))

(* expr := atom | '(' expr+ ')'; a sequence of two or more exprs
   (at top level or inside parentheses) folds left-deep. *)
let parse g s =
  let ( let* ) = Result.bind in
  let rec exprs toks acc =
    match toks with
    | [] | RP :: _ -> Ok (List.rev acc, toks)
    | LP :: rest ->
        let* group, toks = exprs rest [] in
        let* folded =
          match group with
          | [] -> Error "empty parentheses in join order"
          | e :: es -> Ok (List.fold_left (fun l r -> Node (l, r)) e es)
        in
        let* toks =
          match toks with
          | RP :: toks -> Ok toks
          | _ -> Error "unbalanced parentheses in join order"
        in
        exprs toks (folded :: acc)
    | Atom a :: rest ->
        let* i = resolve_atom g a in
        exprs rest (Leaf i :: acc)
  in
  let* top, rest = exprs (tokenize s) [] in
  let* () =
    match rest with [] -> Ok () | _ -> Error "unbalanced parentheses in join order"
  in
  let* order =
    match top with
    | [] -> Error "empty join order"
    | e :: es -> Ok (List.fold_left (fun l r -> Node (l, r)) e es)
  in
  (* every relation exactly once *)
  let seen = Hashtbl.create 16 in
  let rec check = function
    | Leaf i ->
        if Hashtbl.mem seen i then
          Error
            (Printf.sprintf "relation %s appears twice in the join order"
               (G.relation g i).G.name)
        else (Hashtbl.add seen i (); Ok ())
    | Node (l, r) ->
        let* () = check l in
        check r
  in
  let* () = check order in
  let missing = ref [] in
  for i = G.num_nodes g - 1 downto 0 do
    if not (Hashtbl.mem seen i) then missing := (G.relation g i).G.name :: !missing
  done;
  match !missing with
  | [] -> Ok order
  | ms ->
      Error
        (Printf.sprintf "join order does not cover: %s" (String.concat ", " ms))

(* ---------- forced-plan construction ---------- *)

let names_of g i = (G.relation g i).G.name

let set_str g s = Provenance.set_to_string ~names:(names_of g) s

let build_forced ~model ~counters g order =
  let ( let* ) = Result.bind in
  let rec build = function
    | Leaf i -> Ok (Plan.scan g i)
    | Node (l, r) -> (
        let* pl = build l in
        let* pr = build r in
        match Core.Emit.candidates ~model ~counters g pl pr with
        | [] ->
            Error
              (Printf.sprintf
                 "no join predicate connects %s and %s (cross products are \
                  not enumerated)"
                 (set_str g pl.Plan.set) (set_str g pr.Plan.set))
        | cands -> (
            (* honor the written argument order when a candidate has it;
               otherwise (non-commutative operator forced the swap) take
               the first valid candidate *)
            let written (c : Plan.t) =
              match c.Plan.tree with
              | Plan.Join j -> Ns.equal j.Plan.left.Plan.set pl.Plan.set
              | _ -> false
            in
            match List.find_opt written cands with
            | Some c -> Ok c
            | None -> Ok (List.hd cands)))
  in
  build order

(* ---------- gap analysis ---------- *)

let close a b =
  let tol = 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol

let gaps_of dp (forced : Plan.t) =
  let acc = ref [] in
  let rec walk (p : Plan.t) =
    match p.Plan.tree with
    | Plan.Scan _ -> 0.0
    | Plan.Join j ->
        let gl = walk j.Plan.left in
        let gr = walk j.Plan.right in
        let best =
          match Plans.Dp_table.cost dp p.Plan.set with
          | c -> c
          | exception Not_found -> p.Plan.cost
        in
        let total = Float.max 0.0 (p.Plan.cost -. best) in
        let local = Float.max 0.0 (total -. gl -. gr) in
        acc :=
          { set = p.Plan.set; forced_cost = p.Plan.cost; best_cost = best;
            total; local }
          :: !acc;
        total
  in
  ignore (walk forced);
  List.rev !acc

let analyze ?(model = Costing.Cost_model.c_out) g spec =
  let ( let* ) = Result.bind in
  let* order = parse g spec in
  let counters = Core.Counters.create () in
  let prov = Provenance.create () in
  let dp, opt =
    Provenance.with_recording prov (fun () ->
        Core.Dphyp.solve_with_table ~model ~counters g)
  in
  let* optimal =
    match opt with
    | Some p -> Ok p
    | None -> Error "graph is disconnected; no complete plan exists"
  in
  let* forced = build_forced ~model ~counters g order in
  let gaps = gaps_of dp forced in
  let first_divergence =
    List.find_opt (fun gp -> not (close gp.forced_cost gp.best_cost)) gaps
  in
  Ok
    {
      graph = g;
      forced;
      optimal;
      gaps;
      first_divergence;
      diff = Plans.Plan_diff.diff forced optimal;
      provenance = prov;
    }

(* ---------- rendering ---------- *)

let rec pp_order names ppf (p : Plan.t) =
  match p.Plan.tree with
  | Plan.Scan i -> Format.pp_print_string ppf (names i)
  | Plan.Join j ->
      Format.fprintf ppf "(%a %a)" (pp_order names) j.Plan.left
        (pp_order names) j.Plan.right

let pp ppf r =
  let names = names_of r.graph in
  let set s = Provenance.set_to_string ~names s in
  Format.fprintf ppf "forced:  %a   cost %.6g@." (pp_order names) r.forced
    r.forced.Plan.cost;
  Format.fprintf ppf "optimal: %a   cost %.6g@." (pp_order names) r.optimal
    r.optimal.Plan.cost;
  (match r.first_divergence with
  | None ->
      Format.fprintf ppf "the forced order is optimal (gap 0).@."
  | Some gp ->
      let total_gap = r.forced.Plan.cost -. r.optimal.Plan.cost in
      Format.fprintf ppf "gap: +%.6g (%.3fx optimal)@." total_gap
        (r.forced.Plan.cost /. r.optimal.Plan.cost);
      Format.fprintf ppf
        "first divergence at %s: forced cost %.6g vs optimal %.6g (gap \
         +%.6g)@."
        (set gp.set) gp.forced_cost gp.best_cost gp.total;
      Format.fprintf ppf
        "cost attribution (postorder; local = gap added by that join):@.";
      List.iter
        (fun gp ->
          Format.fprintf ppf "  %-24s forced %12.6g  best %12.6g  gap \
                              +%-10.6g local +%.6g@."
            (set gp.set) gp.forced_cost gp.best_cost gp.total gp.local)
        r.gaps;
      Format.fprintf ppf "aligned diff (forced vs optimal):@.";
      Plans.Plan_diff.pp ~names ~labels:("forced", "optimal") ppf r.diff)

let report r = Format.asprintf "%a" pp r
