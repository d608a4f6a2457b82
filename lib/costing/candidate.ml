type t = {
  mutable left_card : float;
  mutable left_cost : float;
  mutable right_card : float;
  mutable right_cost : float;
  mutable sel : float;
  mutable card : float;
  mutable cost : float;
}

let create () =
  {
    left_card = 0.0;
    left_cost = 0.0;
    right_card = 0.0;
    right_cost = 0.0;
    sel = 1.0;
    card = 0.0;
    cost = 0.0;
  }
