(* Vance–Maier subset enumeration: s' = (s' - m) land m.

   Starting from s = 0, the update yields every subset of m exactly
   once in increasing numeric order and returns to 0 after the full
   subset m.  Subtraction borrows through the zero gaps of m, which is
   what makes the stride work.

   Masks that fit the single-word representation take that stride
   verbatim.  Wider masks fall back to a counter over the member list:
   with members m_0 < m_1 < ... the counter's bit j selects m_j, so
   counting 1 .. 2^k-1 still yields every non-empty subset exactly
   once in increasing numeric order — the property DP enumeration
   relies on (subsets before supersets along each chain). *)

let iter_nonempty_small m f =
  if m <> 0 then begin
    let s = ref (m land (-m)) in
    (* first non-empty subset = lowest bit *)
    let continue = ref true in
    while !continue do
      f (Node_set.unsafe_of_int !s);
      if !s = m then continue := false
      else s := (!s - m) land m
    done
  end

let iter_nonempty_wide m f =
  let members = Array.of_list (Node_set.to_list m) in
  let k = Array.length members in
  if k >= Node_set.small_capacity then
    invalid_arg
      (Printf.sprintf "Subset_enum: mask with %d members is not enumerable" k);
  for c = 1 to (1 lsl k) - 1 do
    let s = ref Node_set.empty in
    for j = 0 to k - 1 do
      if (c lsr j) land 1 = 1 then s := Node_set.add members.(j) !s
    done;
    f !s
  done

let iter_nonempty m f =
  if Node_set.fits_small m then iter_nonempty_small (Node_set.to_int m) f
  else iter_nonempty_wide m f

let iter_proper_nonempty m f =
  iter_nonempty m (fun s -> if not (Node_set.equal s m) then f s)

let iter_all m f =
  f Node_set.empty;
  iter_nonempty m f

let fold_nonempty m f acc =
  let acc = ref acc in
  iter_nonempty m (fun s -> acc := f !acc s);
  !acc

exception Found

let exists_nonempty m p =
  try
    iter_nonempty m (fun s -> if p s then raise Found);
    false
  with Found -> true

let count m p = fold_nonempty m (fun n s -> if p s then n + 1 else n) 0

let to_list_nonempty m = List.rev (fold_nonempty m (fun l s -> s :: l) [])
