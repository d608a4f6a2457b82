type key = { fp : Fingerprint.t; exact : string }

let key ~fingerprint ~exact = { fp = fingerprint; exact }

type 'v ready = { value : 'v; mutable priority : float; opt_ms : float }

type 'v state = In_flight | Ready of 'v ready

type 'v entry = { mutable state : 'v state }

type 'v shard = {
  lock : Mutex.t;
  published : Condition.t;
  tbl : (string, 'v entry) Hashtbl.t;
  mutable clock : float;  (* GreedyDual logical clock L *)
  cap : int;
}

type 'v t = {
  shards : 'v shard array;
  total_capacity : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  coalesced : int Atomic.t;
  evictions : int Atomic.t;
}

type outcome = Hit | Miss | Coalesced

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  (* Capacity is enforced per shard, so a shard needs slack: with one
     entry per shard, two hot keys hashing together evict each other
     on every request.  Up to 16 stripes, clamped so each shard holds
     at least 4 entries (and never more stripes than capacity). *)
  let shards = max 1 (min 16 (capacity / 4)) in
  let cap = (capacity + shards - 1) / shards in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            published = Condition.create ();
            tbl = Hashtbl.create (2 * cap);
            clock = 0.0;
            cap;
          });
    total_capacity = capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    coalesced = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* FNV-1a over the exact key: shard routing must separate distinct
   keys that share a fingerprint (isomorphic templates differing only
   in catalogs are exactly the hot case a replay cache serves), so the
   stripe index mixes both.  Deterministic and address-free, like the
   fingerprint itself. *)
let fnv_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  Int64.to_int !h land max_int

let shard_of t k =
  t.shards.((Fingerprint.hash k.fp lxor fnv_string k.exact)
            mod Array.length t.shards)

let ready_count sh =
  Hashtbl.fold
    (fun _ e n -> match e.state with Ready _ -> n + 1 | In_flight -> n)
    sh.tbl 0

(* Called with [sh.lock] held, after a new entry was published.
   Evicts minimum-priority completed entries until the shard is back
   within capacity, advancing the clock to each victim's priority
   (the GreedyDual step that makes priorities comparable across
   generations).  Linear scans are fine: a shard holds at most
   [cap] entries and eviction runs once per insertion. *)
let evict_over_capacity t sh =
  let over = ref (ready_count sh - sh.cap) in
  while !over > 0 do
    let victim =
      Hashtbl.fold
        (fun k e best ->
          match e.state, best with
          | In_flight, _ -> best
          | Ready r, Some (_, bp) when bp <= r.priority -> best
          | Ready r, _ -> Some (k, r.priority))
        sh.tbl None
    in
    (match victim with
    | Some (k, p) ->
        Hashtbl.remove sh.tbl k;
        if p > sh.clock then sh.clock <- p;
        Atomic.incr t.evictions
    | None -> over := 0);
    decr over
  done

let touch sh r = r.priority <- sh.clock +. r.opt_ms

let rec find_or_compute t k f =
  let sh = shard_of t k in
  Mutex.lock sh.lock;
  match Hashtbl.find_opt sh.tbl k.exact with
  | Some { state = Ready r; _ } ->
      touch sh r;
      Mutex.unlock sh.lock;
      Atomic.incr t.hits;
      (r.value, Hit)
  | Some { state = In_flight; _ } ->
      (* single flight: some other request is computing this key *)
      let rec wait () =
        Condition.wait sh.published sh.lock;
        match Hashtbl.find_opt sh.tbl k.exact with
        | Some { state = Ready r; _ } ->
            touch sh r;
            Mutex.unlock sh.lock;
            Atomic.incr t.coalesced;
            Some r.value
        | Some { state = In_flight; _ } -> wait ()
        | None ->
            (* the computation failed (or the fresh entry was already
               evicted): fall back to computing ourselves *)
            Mutex.unlock sh.lock;
            None
      in
      (match wait () with
      | Some v -> (v, Coalesced)
      | None -> find_or_compute t k f)
  | None -> (
      let entry = { state = In_flight } in
      Hashtbl.replace sh.tbl k.exact entry;
      Mutex.unlock sh.lock;
      Atomic.incr t.misses;
      let t0 = Unix.gettimeofday () in
      match f () with
      | v ->
          let opt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          Mutex.lock sh.lock;
          entry.state <- Ready { value = v; priority = sh.clock +. opt_ms; opt_ms };
          evict_over_capacity t sh;
          Condition.broadcast sh.published;
          Mutex.unlock sh.lock;
          (v, Miss)
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock sh.lock;
          (* remove only our own marker: it cannot have been replaced,
             because every other requester blocks on it *)
          Hashtbl.remove sh.tbl k.exact;
          Condition.broadcast sh.published;
          Mutex.unlock sh.lock;
          Printexc.raise_with_backtrace exn bt)

let find t k =
  let sh = shard_of t k in
  Mutex.lock sh.lock;
  let r =
    match Hashtbl.find_opt sh.tbl k.exact with
    | Some { state = Ready r; _ } -> Some r.value
    | _ -> None
  in
  Mutex.unlock sh.lock;
  r

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;
  capacity : int;
}

let stats t =
  let entries =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let n = ready_count sh in
        Mutex.unlock sh.lock;
        acc + n)
      0 t.shards
  in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    coalesced = Atomic.get t.coalesced;
    evictions = Atomic.get t.evictions;
    entries;
    capacity = t.total_capacity;
  }

let capacity t = t.total_capacity

let shard_entries t =
  Array.map
    (fun sh ->
      Mutex.lock sh.lock;
      let n = ready_count sh in
      Mutex.unlock sh.lock;
      n)
    t.shards

(* Rendered through the shared telemetry formatting (Obs.Export), so
   `joinopt explain --cache` and `joinopt stats` can never format
   these counters differently. *)
let pp_stats ppf s =
  Obs.Export.pp_kvs ppf
    [
      Obs.Export.kv_int "hits" s.hits;
      Obs.Export.kv_int "misses" s.misses;
      Obs.Export.kv_int "coalesced" s.coalesced;
      Obs.Export.kv_int "evictions" s.evictions;
      Obs.Export.kv_ratio "entries" s.entries s.capacity;
    ]
