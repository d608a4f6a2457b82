module Ns = Nodeset.Node_set
module G = Hypergraph.Graph

(* Two indexes from node set to entry id behind one interface.  For
   small queries the index is a flat int array over the bit pattern
   of the node set, so [id] — executed once or more per considered
   csg-cmp-pair — is a single array probe with no hashing.
   Beyond [flat_max_nodes] it falls back to a hash table: 2^18 slots
   cost ~2 MB and fill in microseconds at [create] time, while 2^n
   beyond that starts to rival the enumeration itself. *)

let flat_max_nodes = 18

(* The hash index keys on the node set itself, at any width:
   [Ns.hash] and [Ns.equal] are value-based, so the table is oblivious
   to which representation a set arrived in, and a one-word set
   hashes as its bit pattern.  [Ns.hash] keeps a set's bits where they
   sit in its word, and a bucket is picked by the low bits alone, so
   the hash is mixed first: sets of high-numbered nodes would
   otherwise crowd a few buckets.  The mixer is two multiply-xorshift
   rounds (SplitMix64's finalizer, constants cut to OCaml's 63-bit
   ints), a few instructions in place of a call into the runtime's
   [Hashtbl.hash].  Both rounds matter: with one, the csgs of a chain
   (runs of contiguous bits) piled into long buckets. *)
let mix h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

module NsTbl = Hashtbl.Make (struct
  type t = Ns.t

  let equal = Ns.equal
  let hash s = mix (Ns.hash s)
end)

type index =
  | Flat of int array  (* slot [Ns.to_int s]: entry id, or -1 *)
  | Hashed of int NsTbl.t

type event = Installed | Displaced of float | Rejected

type hook =
  Ns.t -> left:Ns.t -> cost:float -> card:float -> event -> unit

(* The entries, struct-of-arrays in insertion order: entry [i] is the
   best split found for [sets.(i)] — its left side, its operator code
   (see Plan), its total cost and output cardinality.  Leaves have an
   empty left side and plan as a scan.  Each column is a directory of
   [chunk]-entry chunks, entry [i] at slot [i land (chunk - 1)] of
   chunk [i lsr chunk_bits].  A full table adds one chunk per column
   and copies only the directory (doubling it when full), never an
   entry.  A chunk fits the minor heap (at most 256 words), so it is
   promoted once; a column copied whole on growth would go straight
   to the major heap past 256 words and leave the old copy there as
   garbage, which raises the heap's high-water mark.  A table holds
   one word per flat slot plus a few words per live entry, and a
   candidate that loses touches nothing but floats. *)
let chunk_bits = 6
let chunk = 1 lsl chunk_bits
let slot i = i land (chunk - 1)

type t = {
  g : G.t;
  index : index;
  mutable sets : Ns.t array array;
  mutable lefts : Ns.t array array;
  mutable codes : int array array;
  mutable costs : float array array;
  mutable cards : float array array;
  mutable len : int;
  mutable hook : hook option;
  lift : Ns.t -> Ns.t;  (* table set -> the set a hook reports *)
}

(* Ambient provenance wiring.  The inspect layer installs a creation
   observer around a whole optimizer run so that every table the run
   builds (the main memo, per-block tables, IDP round tables) attaches
   its own offer hook without any algorithm threading a parameter;
   [with_context] lets the algorithm layers label which table is
   active (tier, block, round) for the same observer.  Both are
   domain-local: a spawned domain starts with no observer and an
   empty label, so recording covers exactly the tables the calling
   domain builds, and concurrent runs on other domains (a batch)
   neither leak into the recorder nor see its labels. *)

let create_observer : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let context_label = Domain.DLS.new_key (fun () -> "")

let with_dls key v body =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key v;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) body

let with_create_observer f body = with_dls create_observer (Some f) body

let with_context label body = with_dls context_label label body

let current_context () = Domain.DLS.get context_label

let set_hook t h = t.hook <- h

let create_for ?(lift = Fun.id) g =
  let n = G.num_nodes g in
  let index =
    if n <= flat_max_nodes then Flat (Array.make (1 lsl n) (-1))
    else
      (* OCaml's Hashtbl resizes once the load factor passes 2, so a
         bucket count of half the expected entries already avoids
         every rehash; creating with the full estimate leaves
         headroom for it being low.  The table never holds more than
         the graph's 2^n subsets. *)
      let hint =
        min (1 lsl min n 61)
          (max 16 (Hypergraph.Csg_enum.estimate_connected_subgraphs g))
      in
      Hashed (NsTbl.create hint)
  in
  let t =
    {
      g;
      index;
      sets = [| Array.make chunk Ns.empty |];
      lefts = [| Array.make chunk Ns.empty |];
      codes = [| Array.make chunk 0 |];
      costs = [| Array.make chunk 0.0 |];
      cards = [| Array.make chunk 0.0 |];
      len = 0;
      hook = None;
      lift;
    }
  in
  (match Domain.DLS.get create_observer with None -> () | Some f -> f t);
  t

let hash_stats t =
  match t.index with
  | Flat _ -> None
  | Hashed h -> Some (NsTbl.stats h)

(* The connectivity test of every enumerator, and it hands a hit's id
   on, so neither outcome may allocate: [find_opt] would box every
   hit, while a [Not_found] raised without a backtrace is a jump. *)
let id t s =
  match t.index with
  | Flat a -> a.(Ns.to_int s)
  | Hashed h -> ( match NsTbl.find h s with i -> i | exception Not_found -> -1)

(* Give every column its chunk [k], doubling the directories when
   they are full: only chunk pointers move. *)
let add_chunk t k =
  if k = Array.length t.sets then begin
    let extend d empty =
      let d' = Array.make (2 * k) empty in
      Array.blit d 0 d' 0 k;
      d'
    in
    t.sets <- extend t.sets [||];
    t.lefts <- extend t.lefts [||];
    t.codes <- extend t.codes [||];
    t.costs <- extend t.costs [||];
    t.cards <- extend t.cards [||]
  end;
  t.sets.(k) <- Array.make chunk Ns.empty;
  t.lefts.(k) <- Array.make chunk Ns.empty;
  t.codes.(k) <- Array.make chunk 0;
  t.costs.(k) <- Array.make chunk 0.0;
  t.cards.(k) <- Array.make chunk 0.0

(* Append an entry for [s] and index it; returns its id. *)
let add t s =
  let i = t.len in
  if slot i = 0 && i > 0 then add_chunk t (i lsr chunk_bits);
  t.len <- i + 1;
  t.sets.(i lsr chunk_bits).(slot i) <- s;
  (match t.index with
  | Flat a -> a.(Ns.to_int s) <- i
  | Hashed h -> NsTbl.replace h s i);
  i

(* Every column access spells out its chunk and slot: a shared
   accessor would have to be polymorphic, and read a float column
   through the generic path, boxing. *)
let load t (c : Costing.Candidate.t) i1 i2 =
  let k1 = i1 lsr chunk_bits and j1 = slot i1 in
  let k2 = i2 lsr chunk_bits and j2 = slot i2 in
  c.left_card <- t.cards.(k1).(j1);
  c.left_cost <- t.costs.(k1).(j1);
  c.right_card <- t.cards.(k2).(j2);
  c.right_cost <- t.costs.(k2).(j2)

let store t i (c : Costing.Candidate.t) ~left ~code =
  let k = i lsr chunk_bits and j = slot i in
  t.lefts.(k).(j) <- left;
  t.codes.(k).(j) <- code;
  t.costs.(k).(j) <- c.cost;
  t.cards.(k).(j) <- c.card

let notify t s ~left (c : Costing.Candidate.t) ev =
  match t.hook with
  | None -> ()
  | Some f -> f (t.lift s) ~left:(t.lift left) ~cost:c.cost ~card:c.card ev

(* Cost first: the incumbent's cost is one array read, and a losing
   candidate changes nothing.  Strict [<], so among equal costs the
   first candidate seen stays.  The caller has looked the slot up. *)
let offer t (c : Costing.Candidate.t) i s ~left ~code =
  if i < 0 then begin
    let i = add t s in
    store t i c ~left ~code;
    notify t s ~left c Installed;
    i
  end
  else begin
    let old = t.costs.(i lsr chunk_bits).(slot i) in
    if c.cost < old then begin
      (* the event block is built only for an attached hook *)
      if t.hook != None then notify t s ~left c (Displaced old);
      store t i c ~left ~code
    end
    else notify t s ~left c Rejected;
    i
  end

let leaf t v ~cost =
  let s = Ns.singleton v in
  let i = match id t s with -1 -> add t s | i -> i in
  let k = i lsr chunk_bits and j = slot i in
  t.lefts.(k).(j) <- Ns.empty;
  t.codes.(k).(j) <- Plan.rejected;
  t.costs.(k).(j) <- cost;
  t.cards.(k).(j) <- G.cardinality t.g v

let size t = t.len

let cost t s =
  match id t s with
  | -1 -> raise Not_found
  | i -> t.costs.(i lsr chunk_bits).(slot i)

(* Build the plan tree of entry [i] from the stored splits: the
   children's entries are final by the time a superset uses them, so
   this is the plan the enumeration costed. *)
let rec plan_of t i =
  let k = i lsr chunk_bits and j = slot i in
  let s = t.sets.(k).(j) and left = t.lefts.(k).(j) in
  let cost = t.costs.(k).(j) in
  if Ns.is_empty left then
    (* a scan shares the graph's cardinality and the constant 0, so a
       plan kept in a cache holds no float boxes of its own *)
    let p = Plan.scan t.g (Ns.min_elt s) in
    if cost = 0.0 then p else { p with cost }
  else
    let pl = plan_of t (id t left) in
    let pr = plan_of t (id t (Ns.diff s left)) in
    Plan.make_join t.g ~code:t.codes.(k).(j) ~card:t.cards.(k).(j) ~cost pl pr

let find t s = match id t s with -1 -> None | i -> Some (plan_of t i)

let best t s = match id t s with -1 -> raise Not_found | i -> plan_of t i

(* Newest first: DPsize emits pairs in this order, and among equal
   costs the first candidate seen wins. *)
let sets_of_size t k =
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    let s = t.sets.(i lsr chunk_bits).(slot i) in
    if Ns.cardinal s = k then acc := s :: !acc
  done;
  !acc
