(* HDR-style log-linear histogram.

   Bucketing: values below [sub] (128) get exact unit buckets; above
   that, every power-of-two octave is split into [half] (64) equal
   sub-buckets, so the relative width of any bucket is at most 1/64
   (~1.6%).  Bucket indexes are computed with shifts only — no floats,
   no logs — and the whole grid is one fixed-size int array.

   Recording is a plain array increment; the owner of a histogram
   serializes access to it (Export records and snapshots under its
   registry lock). *)

let sub_bits = 7

let sub = 1 lsl sub_bits (* 128 linear unit buckets *)

let half = sub / 2 (* 64 sub-buckets per octave *)

let max_msb = 61

let max_value = max_int (* 2^62 - 1 on 64-bit: msb 61 *)

let num_buckets = sub + ((max_msb - sub_bits + 1) * half)

let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin r := !r + 32; v := !v lsr 32 end;
  if !v lsr 16 <> 0 then begin r := !r + 16; v := !v lsr 16 end;
  if !v lsr 8 <> 0 then begin r := !r + 8; v := !v lsr 8 end;
  if !v lsr 4 <> 0 then begin r := !r + 4; v := !v lsr 4 end;
  if !v lsr 2 <> 0 then begin r := !r + 2; v := !v lsr 2 end;
  if !v lsr 1 <> 0 then incr r;
  !r

let clamp v = if v < 0 then 0 else if v > max_value then max_value else v

let bucket_of v =
  let v = clamp v in
  if v < sub then v
  else
    let m = msb v in
    sub + ((m - sub_bits) * half) + ((v lsr (m - sub_bits + 1)) - half)

(* Inclusive [low, high] range of bucket [i]. *)
let bucket_bounds i =
  if i < sub then (i, i)
  else
    let o = (i - sub) / half and s = (i - sub) mod half in
    let shift = o + 1 in
    let low = (half + s) lsl shift in
    (low, low + (1 lsl shift) - 1)

let bucket_high i = snd (bucket_bounds i)

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int; (* max_int when empty *)
  mutable max_v : int;
}

type snapshot = t

let create () =
  { counts = Array.make num_buckets 0; count = 0; sum = 0; min_v = max_int;
    max_v = 0 }

let record t v =
  let v = clamp v in
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let snapshot t = { t with counts = Array.copy t.counts }

let count s = s.count

let sum s = s.sum

let min_recorded s = if s.count = 0 then 0 else s.min_v

let max_recorded s = s.max_v

let mean s =
  if s.count = 0 then 0.0 else float_of_int s.sum /. float_of_int s.count

(* Nearest-rank quantile: the value at rank ceil(q*count) of the
   sorted recordings, reported as the upper bound of its bucket
   (clamped to the exact recorded maximum).  Because cumulative bucket
   order is value order, the reported value sits in the same bucket as
   the exact sorted-list quantile, i.e. within one bucket's relative
   error (<= 1/64 above 128, exact below). *)
let quantile s q =
  if s.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      max 1 (min s.count (int_of_float (ceil (q *. float_of_int s.count))))
    in
    let cum = ref 0 and i = ref 0 and res = ref s.max_v in
    (try
       while !i < num_buckets do
         cum := !cum + s.counts.(!i);
         if !cum >= rank then begin
           res := bucket_high !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    min !res s.max_v
  end

(* Observations <= v, counted in whole buckets (the straddling
   bucket's tail is excluded, an undercount of at most one bucket's
   width — the same <= 1/64 relative error as everything else). *)
let count_le s v =
  let v = clamp v in
  let cum = ref 0 in
  (try
     for i = 0 to num_buckets - 1 do
       if bucket_high i > v then raise Exit;
       cum := !cum + s.counts.(i)
     done
   with Exit -> ());
  !cum
