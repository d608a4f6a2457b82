module Ns = Nodeset.Node_set
module G = Hypergraph.Graph
module He = Hypergraph.Hyperedge
module Dp = Plans.Dp_table
module Pool = Parallel.Pool

(* ---- growable int vector (pair buffer) --------------------------- *)

type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = [||]; len = 0 }

let vec_push v x =
  let cap = Array.length v.buf in
  if v.len = cap then begin
    let buf = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* ---- connectivity oracle ----------------------------------------- *)

(* Weak-closure connectivity: treat every simple edge inside [s] as a
   link and every complex edge with u ∪ v ⊆ s as a clique over its
   in-[s] cover.  This over-approximates Definition 3 (hypernode
   orientation is ignored; flexible w-relations ride along), and
   crucially it contains every set the sequential run tables: an
   entry S is always s1 ∪ s2 for two smaller entries joined by an
   edge with u ⊆ s1, v ⊆ s2, so by induction the closure glues all of
   S.  Over-approximation slack only ever emits extra pairs with a
   side that has no DP entry, which the emitter drops — see
   doc/algorithm.mld.  Uses only immutable graph indexes (no scratch
   arena), so it is safe on a shared graph from any domain. *)
let connected_weakly g s =
  match Ns.cardinal s with
  | 0 -> false
  | 1 -> true
  | _ ->
      let reach = ref (Ns.min_set s) in
      let continue = ref true in
      while !continue do
        let r = !reach in
        let grown = ref (Ns.union r (Ns.inter (G.simple_neighborhood g r) s)) in
        List.iter
          (fun (e : He.t) ->
            if Ns.subset (Ns.union e.u e.v) s then begin
              let cov = Ns.inter (He.covers e) s in
              if Ns.intersects cov !grown then grown := Ns.union !grown cov
            end)
          (G.complex_edges g);
        if Ns.equal !grown r then continue := false else reach := !grown
      done;
      Ns.equal !reach s

(* One oracle closure per worker domain.  Flat (up to
   Dp.flat_max_nodes, the DP table's own flat bound): a shared bool
   array over all 2^n subsets, filled in parallel (disjoint word-sized
   slots — race-free) and read-only afterwards.  Hashed: a private
   memo per domain, computing the closure on demand. *)
let build_oracles pool g jobs =
  let n = G.num_nodes g in
  if n <= Dp.flat_max_nodes then begin
    let size = 1 lsl n in
    let conn = Array.make size false in
    let nchunks = min size (jobs * 4) in
    let chunk = (size + nchunks - 1) / nchunks in
    Pool.run_fun pool nchunks (fun i _wid ->
        let lo = i * chunk and hi = min size ((i + 1) * chunk) in
        for key = lo to hi - 1 do
          conn.(key) <- connected_weakly g (Ns.unsafe_of_int key)
        done);
    Array.init jobs (fun _ s -> conn.(Ns.to_int s))
  end
  else
    Array.init jobs (fun _ ->
        let memo = Hashtbl.create 4096 in
        fun s ->
          let key = Ns.to_int s in
          match Hashtbl.find_opt memo key with
          | Some b -> b
          | None ->
              let b = connected_weakly g s in
              Hashtbl.replace memo key b;
              b)

(* ---- candidate buffer -------------------------------------------- *)

(* The priced candidates of one chunk of a layer, in emission order,
   struct-of-arrays like the DP table's entries. *)
type cbuf = {
  mutable sets : Ns.t array;
  mutable lefts : Ns.t array;
  mutable codes : int array;
  mutable costs : float array;
  mutable cards : float array;
  mutable n : int;
}

let cbuf_create () =
  { sets = [||]; lefts = [||]; codes = [||]; costs = [||]; cards = [||]; n = 0 }

let cbuf_push b (c : Costing.Candidate.t) s ~left ~code =
  if b.n = Array.length b.sets then begin
    let cap = max 64 (2 * b.n) in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.n;
      a'
    in
    b.sets <- extend b.sets Ns.empty;
    b.lefts <- extend b.lefts Ns.empty;
    b.codes <- extend b.codes 0;
    b.costs <- extend b.costs 0.0;
    b.cards <- extend b.cards 0.0
  end;
  let i = b.n in
  b.sets.(i) <- s;
  b.lefts.(i) <- left;
  b.codes.(i) <- code;
  b.costs.(i) <- c.cost;
  b.cards.(i) <- c.card;
  b.n <- i + 1

(* Offer the buffered candidates to the table in buffer order. *)
let cbuf_merge dp (c : Costing.Candidate.t) b =
  for i = 0 to b.n - 1 do
    c.cost <- b.costs.(i);
    c.card <- b.cards.(i);
    Dp.offer dp c b.sets.(i) ~left:b.lefts.(i) ~code:b.codes.(i)
  done

(* ---- the three phases -------------------------------------------- *)

let solve_with_table ?obs ?(model = Costing.Cost_model.c_out) ?filter
    ~counters ~jobs g =
  let n = G.num_nodes g in
  Pool.with_pool ~jobs (fun pool ->
      let forks = Array.init jobs (fun _ -> Counters.fork counters) in
      let gs =
        Array.init jobs (fun i -> if i = 0 then g else G.copy_scratch g)
      in
      (* Phase 0: connectivity oracle. *)
      let oracles =
        Obs.Span.with_opt obs "par:oracle" (fun _ ->
            build_oracles pool g jobs)
      in
      (* Phase 1: per-root enumeration.  Pairs are buffered per
         (root, result-cardinality); packed into one int when both
         sides fit (n <= 31), two otherwise.  Root 0 may grow into
         all of {1..n-1} and is the heaviest, so roots are submitted
         in ascending order. *)
      let stride = if n <= 31 then 1 else 2 in
      let buckets =
        Array.init n (fun _ -> Array.init (n + 1) (fun _ -> vec_create ()))
      in
      Obs.Span.with_opt obs "par:enumerate" (fun sp ->
          Pool.run_fun pool n (fun root wid ->
              let by_layer = buckets.(root) in
              let emit s1 _ s2 _ =
                let k = Ns.cardinal s1 + Ns.cardinal s2 in
                let v = by_layer.(k) in
                if stride = 1 then
                  vec_push v ((Ns.to_int s1 lsl n) lor Ns.to_int s2)
                else begin
                  vec_push v (Ns.to_int s1);
                  vec_push v (Ns.to_int s2)
                end
              in
              Dphyp.run_root ~mem:oracles.(wid) ~emit ~counters:forks.(wid)
                gs.(wid) root);
          match sp with
          | None -> ()
          | Some sp ->
              let buffered =
                Array.fold_left
                  (fun acc bl -> Array.fold_left (fun a v -> a + v.len) acc bl)
                  0 buckets
                / stride
              in
              Obs.Span.set sp "jobs" (Obs.Span.Int jobs);
              Obs.Span.set sp "pairs_buffered" (Obs.Span.Int buffered);
              Array.iteri
                (fun i (c : Counters.t) ->
                  Obs.Span.set sp
                    (Printf.sprintf "d%d_pairs" i)
                    (Obs.Span.Int c.pairs_considered))
                forks);
      (* Phase 2: layer-synchronous emission k = 2..n.  During a
         layer the DP table is read-only: every lookup hits an entry
         of size < k, final since the previous layer.  Each chunk of
         the layer's pairs — replayed in sequential emission order,
         roots descending, recursion order within a root — prices its
         candidates into its own buffer, and after the barrier the
         buffers are offered to the table in chunk order.  The table
         thus sees every size-k candidate in sequential order, and
         with its strict [<] keeps the same winners as the
         sequential run. *)
      let dp = Dp.create_for g in
      Ns.iter (fun v -> Dp.leaf dp v ~cost:0.0) (G.all_nodes g);
      let current = Array.init jobs (fun _ -> cbuf_create ()) in
      let emitters =
        Array.init jobs (fun wid ->
            Emit.make ?filter ~model ~counters:forks.(wid)
              ~sink:(fun c s ~left ~code -> cbuf_push current.(wid) c s ~left ~code)
              gs.(wid) dp)
      in
      let merge_cand = Costing.Candidate.create () in
      Obs.Span.with_opt obs "par:emit" (fun _ ->
          for k = 2 to n do
            let bvecs = ref [] in
            for root = 0 to n - 1 do
              let v = buckets.(root).(k) in
              if v.len > 0 then bvecs := v :: !bvecs
            done;
            (* prepending ascending roots leaves the list in
               descending-root order — the sequential order *)
            let bvecs = Array.of_list !bvecs in
            let nb = Array.length bvecs in
            let offs = Array.make (nb + 1) 0 in
            for i = 0 to nb - 1 do
              offs.(i + 1) <- offs.(i) + (bvecs.(i).len / stride)
            done;
            let total = offs.(nb) in
            if total > 0 then begin
              let nchunks = min total (jobs * 4) in
              let chunk = (total + nchunks - 1) / nchunks in
              let bufs = Array.init nchunks (fun _ -> cbuf_create ()) in
              Pool.run_fun pool nchunks (fun ci wid ->
                  let lo = ci * chunk and hi = min total ((ci + 1) * chunk) in
                  if lo < hi then begin
                    current.(wid) <- bufs.(ci);
                    let b = ref 0 in
                    while offs.(!b + 1) <= lo do
                      incr b
                    done;
                    let e = emitters.(wid) in
                    for seq = lo to hi - 1 do
                      while offs.(!b + 1) <= seq do
                        incr b
                      done;
                      let v = bvecs.(!b) in
                      let pos = seq - offs.(!b) in
                      let s1, s2 =
                        if stride = 1 then
                          let p = v.buf.(pos) in
                          ( Ns.unsafe_of_int (p lsr n),
                            Ns.unsafe_of_int (p land ((1 lsl n) - 1)) )
                        else
                          ( Ns.unsafe_of_int v.buf.(2 * pos),
                            Ns.unsafe_of_int v.buf.((2 * pos) + 1) )
                      in
                      Emit.emit e Emit.Symmetric s1 (G.simple_neighborhood g s1)
                        s2 (G.simple_neighborhood g s2)
                    done
                  end);
              Array.iter (cbuf_merge dp merge_cand) bufs
            end
          done);
      Array.iter (fun c -> Counters.absorb ~into:counters c) forks;
      (dp, Dp.find dp (G.all_nodes g)))
