type t = {
  universe : Hypergraph.Graph.t array;
  requests : int array;
}

(* Zipf over ranks 0..n-1: weight(i) = 1/(i+1)^alpha.  We draw by
   inverting the CDF with a binary search — n is small (a universe of
   templates, not a row count), but the stream can be long, so
   precompute the cumulative weights once. *)
let zipf_stream rng ~alpha ~n ~length =
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) alpha);
    cum.(i) <- !total
  done;
  Array.init length (fun _ ->
      let u = Random.State.float rng !total in
      (* smallest i with cum.(i) > u *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo)

let of_generator ?(seed = 42) ?(alpha = 1.0) ~variants ~length gen =
  if variants < 1 then invalid_arg "Replay.of_generator: variants < 1";
  if length < 0 then invalid_arg "Replay.of_generator: length < 0";
  if alpha < 0.0 then invalid_arg "Replay.of_generator: alpha < 0";
  let universe = Array.init variants gen in
  let rng = Random.State.make [| seed; 0x5ca1ab1e |] in
  { universe; requests = zipf_stream rng ~alpha ~n:variants ~length }

let star ?seed ?alpha ?(satellites = 15) ~variants ~length () =
  of_generator ?seed ?alpha ~variants ~length (fun i ->
      let p = { Shapes.default_params with seed = 1000 + i } in
      Shapes.star ~p satellites)

let graph w i = w.universe.(w.requests.(i))
