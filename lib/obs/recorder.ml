(* Flight recorder: a bounded ring buffer of per-request telemetry
   records.  Appends are mutex-serialized (one short critical section
   per served request — negligible next to an optimization), the ring
   never grows, and old records are overwritten in arrival order, so
   memory stays bounded no matter how long the serving process runs.

   Requests slower than the promotion threshold keep their full span
   tree in the ring; fast requests drop it — the common case stores a
   flat record of a dozen words. *)

type request = {
  seq : int;
  fingerprint : string;
  relations : int;
  algo : string;
  tier : string option;
  cache : string option;
  pairs : int;
  wall_s : float;
  minor_words : float;
  major_words : float;
  spans : Span.span list;
}

type t = {
  lock : Mutex.t;
  ring : request option array;
  mutable next : int; (* ring slot of the next write *)
  mutable total : int; (* requests ever recorded *)
  slow_s : float;
}

let create ?(slow_s = 0.1) ~capacity () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity < 1";
  {
    lock = Mutex.create ();
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    slow_s;
  }

let capacity t = Array.length t.ring

let slow_threshold_s t = t.slow_s

let record t ~fingerprint ~relations ~algo ?tier ?cache ~pairs ~wall_s
    ~minor_words ~major_words ?(spans = []) () =
  Mutex.lock t.lock;
  let slow = wall_s >= t.slow_s in
  let r =
    {
      seq = t.total;
      fingerprint;
      relations;
      algo;
      tier;
      cache;
      pairs;
      wall_s;
      minor_words;
      major_words;
      (* promotion: only slow requests keep their span tree — fast
         requests stay a dozen words *)
      spans = (if slow then spans else []);
    }
  in
  t.ring.(t.next) <- Some r;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1;
  Mutex.unlock t.lock

let recorded t =
  Mutex.lock t.lock;
  let n = t.total in
  Mutex.unlock t.lock;
  n

(* Retained records, oldest first. *)
let to_list t =
  Mutex.lock t.lock;
  let cap = Array.length t.ring in
  let acc = ref [] in
  for i = cap - 1 downto 0 do
    match t.ring.((t.next + i) mod cap) with
    | Some r -> acc := r :: !acc
    | None -> ()
  done;
  Mutex.unlock t.lock;
  (* ring slots are written in seq order, so this is ascending seq *)
  !acc

let slowest t k =
  let all =
    List.stable_sort
      (fun a b ->
        match compare b.wall_s a.wall_s with
        | 0 -> compare a.seq b.seq
        | c -> c)
      (to_list t)
  in
  List.filteri (fun i _ -> i < k) all
