type formula = Cout | Cmm

type t = { name : string; formula : formula; symmetric : bool }

let c_out = { name = "cout"; formula = Cout; symmetric = true }

let c_mm = { name = "cmm"; formula = Cmm; symmetric = false }

let[@inline] op_cost t (op : Relalg.Operator.t) ~left_card ~right_card ~out_card
    =
  match t.formula with
  | Cout -> out_card
  | Cmm -> (
      let build = 1.2 and probe = 1.0 in
      let hash = (build *. right_card) +. (probe *. left_card) +. out_card in
      match op.kind with
      | Relalg.Operator.Inner ->
          Float.min hash ((left_card *. right_card) +. out_card)
      | Relalg.Operator.Left_outer | Relalg.Operator.Full_outer
      | Relalg.Operator.Left_semi | Relalg.Operator.Left_anti
      | Relalg.Operator.Left_nest ->
          hash)

let price t op (c : Candidate.t) =
  Cardinality.estimate_into op c;
  c.cost <-
    c.left_cost +. c.right_cost
    +. op_cost t op ~left_card:c.left_card ~right_card:c.right_card
         ~out_card:c.card

let by_name = function
  | "cout" -> Some c_out
  | "cmm" -> Some c_mm
  | _ -> None
