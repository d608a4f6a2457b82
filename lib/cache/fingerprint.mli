(** Canonical plan-cache fingerprints for query hypergraphs.

    A fingerprint is a 64-bit hash of the {e shape} of a hypergraph
    together with the log-scale buckets of its statistics
    ({!Costing.Cardinality.card_bucket} / [sel_bucket]).  It is
    computed by Weisfeiler–Leman-style color refinement, so it is
    invariant under everything that does not change what the
    optimizer can do with the query:

    - {b relation relabeling} — permuting node indices (and renaming
      relations) yields the same fingerprint;
    - {b edge reordering} — edge ids and array order do not
      contribute;
    - {b in-bucket statistics drift} — two catalogs whose
      cardinalities and selectivities round to the same half-decade
      buckets fingerprint identically.

    It {e changes} whenever the shape changes (different edges,
    different operators, different hypernode structure, different
    free-variable wiring) or any statistic crosses a bucket boundary
    ("same shape, different stats" must not share a cache key).

    Determinism: the hash is pure integer arithmetic (FNV-1a) over
    canonical multisets — no [Hashtbl.hash], no addresses — so the
    same graph produces the same fingerprint in every run, every
    domain and every process.

    Fingerprints of non-isomorphic graphs {e may} collide (both by
    design — refinement is not a complete isomorphism test — and by
    pigeonhole), so they label requests (the telemetry recorder's
    entries) and never decide a cache hit: {!Plan_cache} keys on the
    verbatim query. *)

type t
(** A 64-bit fingerprint. *)

val of_graph : Hypergraph.Graph.t -> t
(** Fingerprint a hypergraph.  Cost is [O(rounds · n · m)] with
    [rounds = 3] refinement iterations: every round scans every edge
    for every node to collect its incident edges.  That is ~10 µs on
    a 5-relation chain but ~2 ms on a 160-relation chain or cycle
    (2-core host). *)

val equal : t -> t -> bool

val to_hex : t -> string
(** 16 lowercase hex digits. *)
