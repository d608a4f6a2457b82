(** The dynamic programming table: best known split per connected
    node set.

    Presence of an entry doubles as the connectivity test in every
    algorithm (Section 3.2: "This is done by a lookup into the
    dpTable"), exploiting that DP enumerates subsets before supersets.
    Section 3.6 notes all DP variants memoize the same entries; DPsize
    additionally needs them bucketed by size ({!sets_of_size}).

    The table is cost-first.  An entry is a handful of unboxed
    numbers, kept struct-of-arrays in insertion order: its winning
    left side, its operator code (see {!Plan}), its total cost and its
    output cardinality.  Each column is stored as a directory of
    fixed 64-entry chunks: entry [i] lives in chunk [i / 64], slot
    [i mod 64].  Growing the table adds a chunk per column and, when
    the directory is full, doubles the directory of chunk pointers;
    entries never move, so filling a large table leaves no copied
    columns behind in the major heap.  The emitter prices a
    candidate into a {!Costing.Candidate.t} and {!offer}s it; a
    candidate that does not beat the incumbent allocates nothing.
    Plan trees exist only on request: {!find} and {!best} build the
    tree of one set from the stored splits, once, after enumeration.

    A set maps to its entry id through a flat int array indexed by the
    set's bit pattern for queries of up to {!flat_max_nodes} relations,
    and through a hash table beyond, whose bucket is picked by the
    set's {!Nodeset.Node_set.hash} mixed through two multiply-xorshift
    rounds in OCaml (the csgs of chains and cycles are runs of
    contiguous bits, which a weaker mix piles into few buckets); the
    switchover is invisible to callers. *)

val flat_max_nodes : int
(** The widest query (18 relations) whose sets index a flat 2{^n}
    array. *)

type t

type event =
  | Installed  (** first candidate seen for its node set *)
  | Displaced of float
      (** strictly cheaper than the previous champion, whose cost is
          the argument *)
  | Rejected  (** not cheaper than the incumbent; table unchanged *)
(** Outcome of one {!offer}, as seen by a provenance {!hook}. *)

type hook =
  Nodeset.Node_set.t ->
  left:Nodeset.Node_set.t ->
  cost:float ->
  card:float ->
  event ->
  unit
(** Offer observer: called with the candidate's node set, its left
    side, its cost and cardinality, and what happened to it.
    {!leaf} (leaf initialization) is deliberately unhooked —
    champion history is about csg-cmp-pair decisions. *)

val set_hook : t -> hook option -> unit
(** Attach (or clear) the table's offer observer.  With no hook —
    the default — {!offer} costs one extra load-and-branch per
    outcome and allocates nothing. *)

val with_create_observer : (t -> unit) -> (unit -> 'a) -> 'a
(** [with_create_observer f body] runs [body] with [f] invoked on
    every table created ({!create_for}) during it (the previous observer is
    restored on exit).  This is how a provenance recorder attaches to
    the tables an optimizer run builds internally (per-block, per-IDP
    round) without any algorithm threading a parameter.  Domain-local:
    only tables created on the calling domain are observed; a domain
    spawned during [body] starts with no observer. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context label body] sets the ambient table-context label for
    the duration of [body] (restored on exit).  Algorithm layers use
    it to tell a provenance observer {e which} table is being filled:
    ["tier:exact"], ["partition:block:R3"], ["idp:round:2"], ...
    Domain-local, like {!with_create_observer}. *)

val current_context : unit -> string
(** The calling domain's context label ([""] outside any
    {!with_context}). *)

val create_for :
  ?lift:(Nodeset.Node_set.t -> Nodeset.Node_set.t) -> Hypergraph.Graph.t -> t
(** Table for the query [g]: a flat index for small [n]; beyond the
    flat limit, a hash index pre-sized from
    {!Hypergraph.Csg_enum.estimate_connected_subgraphs}, so filling it
    does not rehash on the common shapes.  A block DP runs on the
    block's induced subgraph ({!Hypergraph.Graph.induced}), so its
    table is a flat 2{^k} index over the block's [k] nodes whatever the
    width of the query.  [lift] (default: identity) renames the sets
    the offer {!hook} sees: a block table passes
    {!Hypergraph.Graph.lift}, so provenance records the enclosing
    graph's node sets. *)

val hash_stats : t -> Hashtbl.statistics option
(** Bucket statistics of the hash index; [None] on the flat path.
    Lets tests assert the pre-sizing really prevents resizes and the
    keys really spread over the buckets. *)

val id : t -> Nodeset.Node_set.t -> int
(** Entry id of the set, or [-1] if it has none.  Ids are dense and
    stable.  This is the membership probe of every enumerator: it
    hands back the id the pair's {!load} and the set's {!offer} then
    use without probing again.  Seeding the {!leaf}s of a fresh table
    in ascending node order gives node [v]'s singleton the id [v]. *)

val load : t -> Costing.Candidate.t -> int -> int -> unit
(** [load t c i1 i2] copies the cardinality and cost of entry [i1]
    into [c]'s left operand and those of [i2] into its right one. *)

val offer :
  t ->
  Costing.Candidate.t ->
  int ->
  Nodeset.Node_set.t ->
  left:Nodeset.Node_set.t ->
  code:int ->
  int
(** [offer t c i s ~left ~code] — the priced candidate [c] splits [s]
    into [left] and [s \ left] under operator code [code]; [i] is
    [s]'s entry id as {!id} returned it ([-1]: none yet).  The
    candidate becomes the entry for [s] if there is none or it is
    strictly cheaper, so among equal costs the first candidate seen
    stays.  Returns [s]'s entry id after the offer, so the candidates
    for one set (a pair's two argument orders) offer into one slot
    looked up once. *)

val leaf : t -> int -> cost:float -> unit
(** [leaf t v ~cost] installs the entry of node [v] unconditionally:
    its cardinality is the table graph's, its cost [cost] — 0 for a
    relation, a block plan's cost for a node IDP contracted.  It
    plans as a [Scan v] with these numbers. *)

val size : t -> int
(** Number of entries — the number of connected subgraphs discovered
    so far. *)

val cost : t -> Nodeset.Node_set.t -> float
(** Cost of the set's entry.  @raise Not_found if it has none. *)

val find : t -> Nodeset.Node_set.t -> Plan.t option
(** The plan tree of the set's entry, built from the stored splits.
    Call it once enumeration is over: the children's entries must be
    final. *)

val best : t -> Nodeset.Node_set.t -> Plan.t
(** {!find}, for a set known to have an entry.
    @raise Not_found if the set has no plan (query disconnected or
    algorithm incomplete — a bug either way). *)

val sets_of_size : t -> int -> Nodeset.Node_set.t list
(** The sets with an entry covering exactly [k] relations, newest
    first (DPsize's plan buckets). *)
