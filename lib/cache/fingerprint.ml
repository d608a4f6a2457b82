module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge

type t = int64

let equal = Int64.equal
let to_hex f = Printf.sprintf "%016Lx" f

(* ---------- FNV-1a (64-bit) ----------
   Pure integer arithmetic: deterministic across runs, domains and
   processes — the property the determinism test pins.  Every input
   is folded in byte by byte. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int h i =
  let rec go h k i = if k = 8 then h else go (mix_byte h i) (k + 1) (i asr 8) in
  go h 0 i

let mix_int64 h v =
  let rec go h k =
    if k = 8 then h
    else
      go
        (mix_byte h (Int64.to_int (Int64.shift_right_logical v (8 * k))))
        (k + 1)
  in
  go h 0

let mix_string h s =
  let h = ref h in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

(* Canonical multiset of colors: sort, then fold.  Sorting makes the
   combination independent of the order members were collected in,
   which is what buys relabeling/reordering invariance. *)
let mix_sorted h arr =
  Array.sort Int64.compare arr;
  let h = ref (mix_int h (Array.length arr)) in
  Array.iter (fun c -> h := mix_int64 !h c) arr;
  !h

let colors_of colors s = Array.of_list (List.map (fun v -> colors.(v)) (Ns.to_list s))

(* Signature of one edge under the current node coloring.  The (u, v)
   sides are kept ordered — they are structural for non-commutative
   operators and survive any relabeling — while the members WITHIN
   each hypernode enter as a sorted multiset. *)
let edge_sig colors (e : He.t) =
  let h = mix_string fnv_offset (Relalg.Operator.symbol e.op) in
  let h = mix_int h (Costing.Cardinality.sel_bucket e.sel) in
  let h = mix_sorted h (colors_of colors e.u) in
  let h = mix_byte h 0x75 in
  let h = mix_sorted h (colors_of colors e.v) in
  let h = mix_byte h 0x76 in
  mix_sorted h (colors_of colors e.w)

(* Refinement rounds.  Three rounds propagate information across a
   3-hop neighborhood — plenty to separate the classic shapes — and
   any fixed count preserves invariance; discriminating power beyond
   this is not a correctness concern because the plan cache's exact
   key, not the fingerprint, decides hits (see Plan_cache). *)
let rounds = 3

let of_graph g =
  let n = G.num_nodes g in
  let edges = G.edges g in
  let colors =
    Array.init n (fun v ->
        let r = G.relation g v in
        let h = mix_byte fnv_offset 0x6e in
        let h = mix_int h (Costing.Cardinality.card_bucket r.G.card) in
        mix_int h (Ns.cardinal r.G.free))
  in
  let esigs = Array.make (Array.length edges) 0L in
  let refresh_esigs () =
    Array.iteri (fun i e -> esigs.(i) <- edge_sig colors e) edges
  in
  for _ = 1 to rounds do
    refresh_esigs ();
    let next =
      Array.init n (fun v ->
          (* incident edges, tagged with the role this node plays *)
          let contribs = ref [] in
          Array.iteri
            (fun i e ->
              let role =
                if Ns.mem v e.He.u then 0x61
                else if Ns.mem v e.He.v then 0x62
                else if Ns.mem v e.He.w then 0x63
                else 0
              in
              if role <> 0 then
                contribs := mix_byte esigs.(i) role :: !contribs)
            edges;
          let h = mix_int64 (mix_byte fnv_offset 0x72) colors.(v) in
          let h = mix_sorted h (Array.of_list !contribs) in
          (* free-variable wiring: the colors of the relations this
             one depends on (table-valued functions) *)
          mix_sorted h (colors_of colors (G.relation g v).G.free))
    in
    Array.blit next 0 colors 0 n
  done;
  refresh_esigs ();
  let h = mix_int (mix_byte fnv_offset 0x67) n in
  let h = mix_int h (Array.length edges) in
  let h = mix_sorted h (Array.copy colors) in
  mix_sorted h esigs
