(** Search-space provenance: who won each memo slot, and why.

    A sampled, bounded recorder for one optimizer run.  Hooked into
    {!Plans.Dp_table.offer} through the per-table hook, it captures
    for every observed subset the {e champion history} — the winning
    csg-cmp-pair decomposition, its cost and cardinality, the cost of
    the entry it displaced, and its arrival rank among the subset's
    candidates — plus aggregate install/displace/reject counts.

    Off by default and invisible when off: an unhooked table pays one
    load-and-branch per offer.  When on, the recorder is attached
    {e ambiently}: {!with_recording} installs a table-creation
    observer ({!Plans.Dp_table.with_create_observer}) so every DP
    table the run builds — the main memo, partitioned-tier block
    tables, IDP round tables — hooks itself, with the algorithm
    layers' {!Plans.Dp_table.with_context} labels captured into each
    champion entry.  Recording wraps a call — any optimizer or
    pipeline entry point — rather than being one of its parameters:

    {[
      let prov = Inspect.Provenance.create () in
      Inspect.Provenance.with_recording prov (fun () ->
          Driver.Pipeline.optimize_graph ~algo g)
    ]}

    The hook is domain-local, so the recording covers the tables the
    calling domain builds inside the call; a plan-cache hit builds no
    table and records nothing; work on other domains (a batch) is not
    recorded.

    Renders three ways: {!pp_table} (the human memo dump behind
    [joinopt inspect]), {!to_json} (the [obs_inspect/v1] schema), and
    {!to_dot} (the explored subset lattice as a DOT digraph). *)

module Ns = Nodeset.Node_set

type champion = {
  left : Ns.t;
      (** winning decomposition sides *)
  right : Ns.t;
  cost : float;
  card : float;
  displaced : float option;
      (** cost of the entry this one beat; [None] = first arrival *)
  rank : int;  (** 1-based arrival rank among the subset's candidates *)
  context : string;
      (** ambient table context at record time — ["tier:exact"],
          ["partition:block:R3"], ["idp:round:2"], or [""] *)
}

type subset = {
  set : Ns.t;
  mutable champions : champion list;  (** newest first, bounded *)
  mutable candidates : int;  (** offer outcomes observed for the set *)
  mutable rejected : int;  (** candidates pruned as not cheaper *)
  mutable dropped : int;  (** history entries discarded by the bound *)
}

type stats = {
  mutable subsets : int;  (** subsets with a recorded history *)
  mutable candidates : int;  (** total offer outcomes observed *)
  mutable installed : int;
  mutable displaced : int;
  mutable rejected : int;
  mutable sampled_out : int;  (** outcomes skipped by [sample] *)
  mutable overflowed : int;  (** outcomes skipped by [max_subsets] *)
  mutable tables : int;  (** DP tables that attached themselves *)
}

type t

val create : ?sample:int -> ?max_subsets:int -> ?max_champions:int -> unit -> t
(** [sample] > 1 keeps history only for subsets whose hash is
    [0 mod sample] (aggregate stats always count everything);
    [max_subsets] (default 65536) bounds tracked subsets;
    [max_champions] (default 8) bounds per-subset history. *)

val attach : t -> Plans.Dp_table.t -> unit
(** Hook one table explicitly (tests; {!with_recording} does this for
    every table the wrapped run creates). *)

val with_recording : t -> (unit -> 'a) -> 'a
(** Run [body] with every DP table it creates on the calling domain
    attached to [t]; restores the previous observer on exit. *)

val stats : t -> stats

val find : t -> Ns.t -> subset option

val subsets : t -> subset list
(** All recorded subsets, sorted by (cardinality, set order) —
    deterministic regardless of hash-table iteration. *)

val champion : subset -> champion option
(** The current (final) champion, if any candidate ever installed. *)

val set_to_string : ?names:(int -> string) -> Ns.t -> string

val pp_stats : Format.formatter -> stats -> unit

val pp_table : ?names:(int -> string) -> Format.formatter -> t -> unit
(** Human memo dump: one row per recorded subset — final cost and
    cardinality, candidates seen ([cands]), candidates pruned
    ([prune]), history depth, the winning pair and its context label
    — followed by the aggregate stats line.  A candidate is one offer
    to the table, i.e. one priced argument order: under C_out a plain
    inner join is priced in one order ({!Core.Emit.emit}), so its pair
    counts once, while C_mm and a commutative non-inner operator
    offer both orders. *)

val to_json : ?names:(int -> string) -> ?name:string -> t -> string
(** The [obs_inspect/v1] document: config, aggregate stats, and per
    subset the full (bounded) champion history, oldest first. *)

val to_dot : ?names:(int -> string) -> ?name:string -> t -> string
(** The explored subset lattice: a node per recorded subset labeled
    with its final cost and candidate count, and for each subset the
    two edges from the halves of its winning decomposition.  Follows
    {!Hypergraph.Dot} conventions (ellipse leaves, box composites,
    labels through the shared escaper). *)
