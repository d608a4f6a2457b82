let inner l r sel = Float.max 1.0 (l *. r *. sel)

let[@inline] estimate (op : Relalg.Operator.t) l r sel =
  let ij = l *. r *. sel in
  match op.kind with
  | Relalg.Operator.Inner -> Float.max 1.0 ij
  | Relalg.Operator.Left_outer -> Float.max ij l
  | Relalg.Operator.Full_outer -> Float.max ij l +. Float.max (r -. ij) 0.0
  | Relalg.Operator.Left_semi -> Float.max 1.0 (l *. Float.min 1.0 (sel *. r))
  | Relalg.Operator.Left_anti -> Float.max 1.0 (l *. (1.0 -. Float.min 1.0 (sel *. r)))
  | Relalg.Operator.Left_nest -> Float.max 1.0 l

let estimate_into op (c : Candidate.t) =
  c.card <- estimate op c.left_card c.right_card c.sel

let selectivity_product edges =
  List.fold_left (fun acc ((e : Hypergraph.Hyperedge.t), _) -> acc *. e.sel) 1.0 edges

(* Half-decade log buckets.  Two catalogs whose statistics round to
   the same buckets are "close enough to share a cached plan key
   prefix"; anything crossing a bucket boundary must get a different
   plan-cache fingerprint.  Pure float arithmetic, so the bucket of a
   value is identical across runs and domains. *)
let log_bucket x = int_of_float (Float.floor (2.0 *. Float.log10 x))

let card_bucket c = if c <= 1.0 then 0 else log_bucket c

let sel_bucket s =
  if s >= 1.0 then 0
  else if s <= 0.0 then min_int
  else log_bucket s

let q_error ~est ~actual =
  if
    est <= 0.0 || actual <= 0.0 || Float.is_nan est || Float.is_nan actual
  then None
  else Some (Float.max (est /. actual) (actual /. est))
