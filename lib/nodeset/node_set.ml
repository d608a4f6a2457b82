(* Width-polymorphic node sets: a single-word fast path and a
   multi-word wide path behind one abstract type.

   Representation (the zarith trick): a value of type [t] is either

   - an immediate OCaml [int] — the historic single-word bitset over
     nodes 0..61, bit-for-bit identical to what the whole DP stack ran
     on when [max_nodes] was 62; or
   - a boxed [int array] of 62-bit words — word [k] covers nodes
     [62k, 62k+62), so word 0 of a wide set has exactly the small
     layout.

   [Obj.is_int] discriminates the two in one tag test, and small sets
   stay unboxed immediates: the n <= 62 hot path allocates nothing and
   compiles to the same bit twiddling as before the widening.

   Wide values are NOT canonicalized: an operation over wide inputs
   yields a wide result even when the value would fit one word
   ("infectious wideness").  All observers are therefore value-based —
   [equal], [compare] and [hash] agree across representations — which
   is also what lets the differential tests run the small-graph
   algorithms entirely on wide representations (see [Internal]).

   Bit tricks used throughout:
   - lowest set bit of [s]:      [s land (-s)]
   - clear lowest set bit:       [s land (s - 1)]
   - population count:           folded 64-bit popcount below. *)

type t = Obj.t

type node = int

let () = assert (Sys.int_size >= 63)

let bits_per_word = 62

(* all 62 usable bits of one word: 2^62 - 1 = max_int on 64-bit *)
let word_mask = max_int

let max_nodes = 1024

let small_capacity = bits_per_word

(* ---------- representation helpers ---------- *)

let sm (x : int) : t = Obj.repr x
let smv (s : t) : int = Obj.obj s
let wd (a : int array) : t = Obj.repr a
let wdv (s : t) : int array = Obj.obj s
let is_small (s : t) = Obj.is_int s

(* Constructors consult this to route even single-word values to the
   wide representation — a hook for the differential tests (see
   [Internal]); never set in production. *)
let force_wide_flag = ref false

let word_of v = v / bits_per_word
let bit_of v = v mod bits_per_word

(* word [k] of a wide payload, 0 beyond its length *)
let word a k = if k < Array.length a then a.(k) else 0

let words (s : t) : int array = if is_small s then [| smv s |] else wdv s

(* index of the last nonzero word (0 if all words are zero) *)
let last_nonzero a =
  let k = ref (Array.length a - 1) in
  while !k > 0 && a.(!k) = 0 do decr k done;
  !k

let fits_small s = is_small s || last_nonzero (wdv s) = 0

let empty = sm 0

let is_empty s =
  if is_small s then smv s = 0
  else begin
    let a = wdv s in
    let all = ref true in
    for k = 0 to Array.length a - 1 do
      if a.(k) <> 0 then all := false
    done;
    !all
  end

let check_node v =
  if v < 0 || v >= max_nodes then
    invalid_arg (Printf.sprintf "Node_set: node %d out of range [0,%d)" v max_nodes)

let wide_singleton v =
  let a = Array.make (word_of v + 1) 0 in
  a.(word_of v) <- 1 lsl bit_of v;
  wd a

let singleton v =
  check_node v;
  if v < bits_per_word && not !force_wide_flag then sm (1 lsl v)
  else wide_singleton v

let mem v s =
  if is_small s then v >= 0 && v < bits_per_word && (smv s lsr v) land 1 = 1
  else
    let a = wdv s in
    let k = word_of v in
    v >= 0 && k < Array.length a && (a.(k) lsr bit_of v) land 1 = 1

let add v s =
  check_node v;
  if is_small s && v < bits_per_word && not !force_wide_flag then
    sm (smv s lor (1 lsl v))
  else begin
    let a = words s in
    let la = Array.length a in
    let r = Array.make (max la (word_of v + 1)) 0 in
    Array.blit a 0 r 0 la;
    r.(word_of v) <- r.(word_of v) lor (1 lsl bit_of v);
    wd r
  end

(* [remove] stays lenient like it always was: removing an out-of-range
   node is a no-op, not an error. *)
let remove v s =
  if is_small s then
    if v < 0 || v >= bits_per_word then s
    else sm (smv s land lnot (1 lsl v))
  else begin
    let a = wdv s in
    let k = word_of v in
    if v < 0 || k >= Array.length a then s
    else begin
      let r = Array.copy a in
      r.(k) <- r.(k) land lnot (1 lsl bit_of v);
      wd r
    end
  end

(* generic word-wise combination of two payloads *)
let op2 f a b =
  let la = Array.length a and lb = Array.length b in
  let l = if la > lb then la else lb in
  let r = Array.make l 0 in
  for k = 0 to l - 1 do
    r.(k) <- f (word a k) (word b k)
  done;
  wd r

let union a b =
  if is_small a && is_small b then sm (smv a lor smv b)
  else op2 ( lor ) (words a) (words b)

let inter a b =
  if is_small a && is_small b then sm (smv a land smv b)
  else op2 ( land ) (words a) (words b)

let diff a b =
  if is_small a && is_small b then sm (smv a land lnot (smv b))
  else op2 (fun x y -> x land lnot y) (words a) (words b)

let subset a b =
  if is_small a && is_small b then smv a land lnot (smv b) = 0
  else begin
    let wa = words a and wb = words b in
    let l = max (Array.length wa) (Array.length wb) in
    let ok = ref true in
    for k = 0 to l - 1 do
      if word wa k land lnot (word wb k) <> 0 then ok := false
    done;
    !ok
  end

let equal a b =
  if is_small a && is_small b then smv a = smv b
  else begin
    let wa = words a and wb = words b in
    let l = max (Array.length wa) (Array.length wb) in
    let ok = ref true in
    for k = 0 to l - 1 do
      if word wa k <> word wb k then ok := false
    done;
    !ok
  end

let strict_subset a b = subset a b && not (equal a b)

let disjoint a b =
  if is_small a && is_small b then smv a land smv b = 0
  else begin
    let wa = words a and wb = words b in
    let l = max (Array.length wa) (Array.length wb) in
    let ok = ref true in
    for k = 0 to l - 1 do
      if word wa k land word wb k <> 0 then ok := false
    done;
    !ok
  end

let intersects a b = not (disjoint a b)

(* numeric order of the value, regardless of representation *)
let compare a b =
  if is_small a && is_small b then Int.compare (smv a) (smv b)
  else begin
    let wa = words a and wb = words b in
    let l = max (Array.length wa) (Array.length wb) in
    let c = ref 0 in
    let k = ref (l - 1) in
    while !c = 0 && !k >= 0 do
      c := Int.compare (word wa !k) (word wb !k);
      decr k
    done;
    !c
  end

(* SWAR popcount on the 62 usable bits of one word. *)
let popcount s =
  let x = s - ((s lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let cardinal s =
  if is_small s then popcount (smv s)
  else Array.fold_left (fun acc w -> acc + popcount w) 0 (wdv s)

let is_singleton s =
  if is_small s then begin
    let s = smv s in
    s <> 0 && s land (s - 1) = 0
  end
  else begin
    let a = wdv s in
    (* 0 = none seen, 1 = exactly one bit, 2 = more *)
    let seen = ref 0 in
    Array.iter
      (fun w ->
        if w <> 0 then
          if !seen > 0 || w land (w - 1) <> 0 then seen := 2 else seen := 1)
      a;
    !seen = 1
  end

(* Number of trailing zeros via de-Bruijn-free loop; sets are small so
   a simple shift loop would do, but binary search is branch-cheap. *)
let ntz s =
  let s = s land (-s) in
  let n = ref 0 in
  let s = ref s in
  if !s land 0xFFFFFFFF = 0 then begin n := !n + 32; s := !s lsr 32 end;
  if !s land 0xFFFF = 0 then begin n := !n + 16; s := !s lsr 16 end;
  if !s land 0xFF = 0 then begin n := !n + 8; s := !s lsr 8 end;
  if !s land 0xF = 0 then begin n := !n + 4; s := !s lsr 4 end;
  if !s land 0x3 = 0 then begin n := !n + 2; s := !s lsr 2 end;
  if !s land 0x1 = 0 then n := !n + 1;
  !n

(* position of the highest set bit of a nonzero word *)
let msb s =
  let v = ref 0 in
  let s = ref s in
  if !s land (0x3FFFFFFF lsl 32) <> 0 then begin v := !v + 32; s := !s lsr 32 end;
  if !s land (0xFFFF lsl 16) <> 0 then begin v := !v + 16; s := !s lsr 16 end;
  if !s land (0xFF lsl 8) <> 0 then begin v := !v + 8; s := !s lsr 8 end;
  if !s land (0xF lsl 4) <> 0 then begin v := !v + 4; s := !s lsr 4 end;
  if !s land (0x3 lsl 2) <> 0 then begin v := !v + 2; s := !s lsr 2 end;
  if !s land 0x2 <> 0 then v := !v + 1;
  !v

let min_elt s =
  if is_small s then begin
    let x = smv s in
    if x = 0 then raise Not_found else ntz x
  end
  else begin
    let a = wdv s in
    let n = Array.length a in
    let rec go k =
      if k = n then raise Not_found
      else if a.(k) <> 0 then (bits_per_word * k) + ntz a.(k)
      else go (k + 1)
    in
    go 0
  end

let min_elt_opt s = match min_elt s with v -> Some v | exception Not_found -> None

let max_elt s =
  if is_small s then begin
    let x = smv s in
    if x = 0 then raise Not_found else msb x
  end
  else begin
    let a = wdv s in
    let rec go k =
      if k < 0 then raise Not_found
      else if a.(k) <> 0 then (bits_per_word * k) + msb a.(k)
      else go (k - 1)
    in
    go (Array.length a - 1)
  end

let min_set s =
  if is_small s then sm (smv s land (-smv s))
  else begin
    let a = wdv s in
    let r = Array.make (Array.length a) 0 in
    (try
       for k = 0 to Array.length a - 1 do
         if a.(k) <> 0 then begin
           r.(k) <- a.(k) land (-a.(k));
           raise Exit
         end
       done
     with Exit -> ());
    wd r
  end

let without_min s =
  if is_small s then sm (smv s land (smv s - 1))
  else begin
    let r = Array.copy (wdv s) in
    (try
       for k = 0 to Array.length r - 1 do
         if r.(k) <> 0 then begin
           r.(k) <- r.(k) land (r.(k) - 1);
           raise Exit
         end
       done
     with Exit -> ());
    wd r
  end

let full n =
  if n < 0 || n > max_nodes then
    invalid_arg (Printf.sprintf "Node_set.full: %d out of range [0,%d]" n max_nodes);
  if n <= bits_per_word && not !force_wide_flag then
    sm (if n = 0 then 0
        else if n = bits_per_word then word_mask
        else (1 lsl n) - 1)
  else begin
    let len = max 1 ((n + bits_per_word - 1) / bits_per_word) in
    let a = Array.make len 0 in
    for k = 0 to len - 1 do
      let cnt = min bits_per_word (n - (k * bits_per_word)) in
      if cnt > 0 then
        a.(k) <- (if cnt = bits_per_word then word_mask else (1 lsl cnt) - 1)
    done;
    wd a
  end

let range lo hi =
  if lo > hi then empty
  else begin
    check_node lo;
    check_node hi;
    if hi < bits_per_word && not !force_wide_flag then
      sm (((1 lsl (hi - lo + 1)) - 1) lsl lo)
    else begin
      let a = Array.make (word_of hi + 1) 0 in
      for v = lo to hi do
        let k = word_of v in
        a.(k) <- a.(k) lor (1 lsl bit_of v)
      done;
      wd a
    end
  end

let below v =
  check_node v;
  full v

let upto v =
  check_node v;
  full (v + 1)

let of_list vs = List.fold_left (fun s v -> add v s) empty vs

let iter f s =
  if is_small s then begin
    let s = ref (smv s) in
    while !s <> 0 do
      let v = ntz !s in
      f v;
      s := !s land (!s - 1)
    done
  end
  else begin
    let a = wdv s in
    for k = 0 to Array.length a - 1 do
      let base = bits_per_word * k in
      let w = ref a.(k) in
      while !w <> 0 do
        f (base + ntz !w);
        w := !w land (!w - 1)
      done
    done
  end

let iter_desc f s =
  if is_small s then begin
    let s = ref (smv s) in
    while !s <> 0 do
      let v = msb !s in
      f v;
      s := !s land lnot (1 lsl v)
    done
  end
  else begin
    let a = wdv s in
    for k = Array.length a - 1 downto 0 do
      let base = bits_per_word * k in
      let w = ref a.(k) in
      while !w <> 0 do
        let b = msb !w in
        f (base + b);
        w := !w land lnot (1 lsl b)
      done
    done
  end

let fold f s acc =
  let acc = ref acc in
  iter (fun v -> acc := f v !acc) s;
  !acc

(* Union of per-node table entries over the members of [s].  This is
   the inner loop of neighborhood computation (per-node simple
   neighbors, incident-edge covers), written without closures so the
   common path allocates nothing.  The moment anything wide shows up
   we bail to the generic fold — union is idempotent, so re-adding
   entries the fast loop already accumulated is harmless. *)
let union_over_array (arr : t array) s =
  if is_small s then begin
    let acc = ref 0 in
    let m = ref (smv s) in
    let wide = ref false in
    while (not !wide) && !m <> 0 do
      let e = arr.(ntz !m) in
      if is_small e then begin
        acc := !acc lor smv e;
        m := !m land (!m - 1)
      end
      else wide := true
    done;
    if not !wide then sm !acc
    else fold (fun v acc -> union arr.(v) acc) s (sm !acc)
  end
  else fold (fun v acc -> union arr.(v) acc) s empty

let to_list s = List.rev (fold (fun v l -> v :: l) s [])

let for_all p s =
  if is_small s then begin
    let ok = ref true in
    let s = ref (smv s) in
    while !ok && !s <> 0 do
      let v = ntz !s in
      if not (p v) then ok := false;
      s := !s land (!s - 1)
    done;
    !ok
  end
  else begin
    let ok = ref true in
    (try
       iter
         (fun v ->
           if not (p v) then begin
             ok := false;
             raise Exit
           end)
         s
     with Exit -> ());
    !ok
  end

let exists p s = not (for_all (fun v -> not (p v)) s)

let filter p s = fold (fun v acc -> if p v then add v acc else acc) s empty

let choose = min_elt

let to_int s =
  if is_small s then smv s
  else begin
    let a = wdv s in
    if last_nonzero a = 0 then a.(0)
    else
      invalid_arg "Node_set.to_int: set does not fit in a single word"
  end

let unsafe_of_int i = sm i

let hash s =
  if is_small s then smv s
  else begin
    let a = wdv s in
    let last = last_nonzero a in
    if last = 0 then a.(0)
    else begin
      let h = ref a.(0) in
      for k = 1 to last do
        h := ((!h * 486187739) + a.(k)) land max_int
      done;
      !h
    end
  end

let pp_named name ppf s =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun v ->
      if !first then first := false else Format.fprintf ppf ",";
      Format.pp_print_string ppf (name v))
    s;
  Format.fprintf ppf "}"

let pp ppf s = pp_named (fun v -> "R" ^ string_of_int v) ppf s

let to_string s = Format.asprintf "%a" pp s

module Internal = struct
  let is_wide_repr s = not (is_small s)

  let force_wide s = if is_small s then wd [| smv s |] else s

  let with_force_wide f =
    let saved = !force_wide_flag in
    force_wide_flag := true;
    Fun.protect ~finally:(fun () -> force_wide_flag := saved) f
end
