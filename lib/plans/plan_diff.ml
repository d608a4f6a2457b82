module Ns = Nodeset.Node_set

(* Structural plan diff: align two plans by the relation set each
   subtree covers, then compare the aligned subtrees' cost and
   cardinality.  Two plans over the same graph agree on leaf sets by
   construction, so the alignment surfaces exactly where their join
   orders part ways: a set present on one side only is a subtree the
   other plan never assembled, and a shared set with different cost is
   a shared milestone reached by different routes.

   This is the failure-output companion of the differential oracle
   tests ("the two optimizers disagree — where?") and the reporting
   vehicle for tier fallbacks ("what did the heuristic lose vs
   exact?"). *)

type side = { cost : float; card : float; shape : string }

type entry = { set : Ns.t; left : side option; right : side option }

type t = {
  entries : entry list;  (* ascending (cardinality, set) *)
  left_total : float;  (* root cost of each input plan *)
  right_total : float;
}

(* Collect every subtree as (set -> side). *)
let subtrees (p : Plan.t) =
  let acc = ref [] in
  let rec go (p : Plan.t) =
    acc := (p.set, { cost = p.cost; card = p.card; shape = Plan.to_string p }) :: !acc;
    match p.tree with
    | Plan.Scan _ -> ()
    | Plan.Join j ->
        go j.left;
        go j.right
  in
  go p;
  !acc

let close a b =
  let m = Float.max (Float.abs a) (Float.abs b) in
  m = 0.0 || Float.abs (a -. b) <= 1e-9 *. m

let matching e =
  match e.left, e.right with
  | Some l, Some r -> close l.cost r.cost && close l.card r.card
  | _ -> false

let diff (p1 : Plan.t) (p2 : Plan.t) =
  let lefts = subtrees p1 and rights = subtrees p2 in
  let module M = Map.Make (struct
    type t = Ns.t

    let compare = Ns.compare
  end) in
  let m =
    List.fold_left
      (fun m (s, side) -> M.add s { set = s; left = Some side; right = None } m)
      M.empty lefts
  in
  let m =
    List.fold_left
      (fun m (s, side) ->
        M.update s
          (function
            | Some e -> Some { e with right = Some side }
            | None -> Some { set = s; left = None; right = Some side })
          m)
      m rights
  in
  let entries =
    M.bindings m |> List.map snd
    |> List.stable_sort (fun a b ->
           match Int.compare (Ns.cardinal a.set) (Ns.cardinal b.set) with
           | 0 -> Ns.compare a.set b.set
           | c -> c)
  in
  { entries; left_total = p1.cost; right_total = p2.cost }

let divergent d = List.filter (fun e -> not (matching e)) d.entries

(* The smallest subtree the two plans built differently (ties broken
   by set order); [None] when every aligned subtree matches. *)
let first_divergence d =
  match divergent d with [] -> None | e :: _ -> Some e

let pp_set names ppf s =
  match names with
  | Some f -> Ns.pp_named f ppf s
  | None -> Ns.pp ppf s

let pp_side ppf = function
  | None -> Format.fprintf ppf "%24s" "-"
  | Some s -> Format.fprintf ppf "%12.4g %11.4g" s.cost s.card

let pp ?names ?(labels = ("left", "right")) ppf d =
  let la, lb = labels in
  Format.fprintf ppf "%-28s %24s  %24s  %s@." "subtree"
    (la ^ " cost/card") (lb ^ " cost/card") "delta";
  Format.fprintf ppf "%s@." (String.make 96 '-');
  let matched = ref 0 in
  List.iter
    (fun e ->
      if matching e then incr matched
      else begin
        let delta =
          match e.left, e.right with
          | Some l, Some r when l.cost <> 0.0 || r.cost <> 0.0 ->
              Printf.sprintf "%+.4g" (r.cost -. l.cost)
          | Some _, None -> "only " ^ la
          | None, Some _ -> "only " ^ lb
          | _ -> ""
        in
        Format.fprintf ppf "%-28s %a  %a  %s@."
          (Format.asprintf "%a" (pp_set names) e.set)
          pp_side e.left pp_side e.right delta
      end)
    d.entries;
  if !matched > 0 then
    Format.fprintf ppf "(%d matching subtree%s omitted)@." !matched
      (if !matched = 1 then "" else "s");
  Format.fprintf ppf "total cost: %s %.6g vs %s %.6g (%+.6g)@." la d.left_total
    lb d.right_total
    (d.right_total -. d.left_total)

let report ?names ?labels p1 p2 =
  let d = diff p1 p2 in
  Format.asprintf "%a" (fun ppf -> pp ?names ?labels ppf) d
