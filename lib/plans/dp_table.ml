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
   empty left side and plan as a scan.  The arrays grow by doubling,
   so a table holds one word per flat slot plus a few words per live
   entry, and a candidate that loses touches nothing but floats. *)
type t = {
  g : G.t;
  index : index;
  mutable sets : Ns.t array;
  mutable lefts : Ns.t array;
  mutable codes : int array;
  mutable costs : float array;
  mutable cards : float array;
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
  let cap = 64 in
  let t =
    {
      g;
      index;
      sets = Array.make cap Ns.empty;
      lefts = Array.make cap Ns.empty;
      codes = Array.make cap 0;
      costs = Array.make cap 0.0;
      cards = Array.make cap 0.0;
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

let grow t =
  let cap = 2 * Array.length t.sets in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.sets <- extend t.sets Ns.empty;
  t.lefts <- extend t.lefts Ns.empty;
  t.codes <- extend t.codes 0;
  t.costs <- extend t.costs 0.0;
  t.cards <- extend t.cards 0.0

(* Append an entry for [s] and index it; returns its id. *)
let add t s =
  if t.len = Array.length t.sets then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.sets.(i) <- s;
  (match t.index with
  | Flat a -> a.(Ns.to_int s) <- i
  | Hashed h -> NsTbl.replace h s i);
  i

let load t (c : Costing.Candidate.t) i1 i2 =
  c.left_card <- t.cards.(i1);
  c.left_cost <- t.costs.(i1);
  c.right_card <- t.cards.(i2);
  c.right_cost <- t.costs.(i2)

let store t i (c : Costing.Candidate.t) ~left ~code =
  t.lefts.(i) <- left;
  t.codes.(i) <- code;
  t.costs.(i) <- c.cost;
  t.cards.(i) <- c.card

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
    if c.cost < t.costs.(i) then begin
      (* the event block is built only for an attached hook *)
      if t.hook != None then notify t s ~left c (Displaced t.costs.(i));
      store t i c ~left ~code
    end
    else notify t s ~left c Rejected;
    i
  end

let leaf t v ~cost =
  let s = Ns.singleton v in
  let i = match id t s with -1 -> add t s | i -> i in
  t.lefts.(i) <- Ns.empty;
  t.codes.(i) <- Plan.rejected;
  t.costs.(i) <- cost;
  t.cards.(i) <- G.cardinality t.g v

let size t = t.len

let cost t s =
  match id t s with -1 -> raise Not_found | i -> t.costs.(i)

(* Build the plan tree of entry [i] from the stored splits: the
   children's entries are final by the time a superset uses them, so
   this is the plan the enumeration costed. *)
let rec plan_of t i =
  let s = t.sets.(i) and left = t.lefts.(i) in
  if Ns.is_empty left then
    (* a scan shares the graph's cardinality and the constant 0, so a
       plan kept in a cache holds no float boxes of its own *)
    let p = Plan.scan t.g (Ns.min_elt s) in
    if t.costs.(i) = 0.0 then p else { p with cost = t.costs.(i) }
  else
    let pl = plan_of t (id t left) in
    let pr = plan_of t (id t (Ns.diff s left)) in
    Plan.make_join t.g ~code:t.codes.(i) ~card:t.cards.(i) ~cost:t.costs.(i) pl
      pr

let find t s = match id t s with -1 -> None | i -> Some (plan_of t i)

let best t s = match id t s with -1 -> raise Not_found | i -> plan_of t i

(* Newest first: DPsize emits pairs in this order, and among equal
   costs the first candidate seen wins. *)
let sets_of_size t k =
  let acc = ref [] in
  for i = 0 to t.len - 1 do
    if Ns.cardinal t.sets.(i) = k then acc := t.sets.(i) :: !acc
  done;
  !acc
