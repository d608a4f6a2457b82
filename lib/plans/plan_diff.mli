(** Structural plan diff: align two plans over the same graph by the
    relation set each subtree covers, and report per-subtree cost and
    cardinality deltas.

    A subtree set present on one side only is a join the other plan
    never assembled; a shared set with different cost is a shared
    milestone reached by different routes.  The differential oracle
    tests print this alignment when two optimizers disagree, the
    adaptive ladder uses it to report what a fallback tier lost
    against exact DP, and [joinopt why] uses it to show where a forced
    order parts ways with the optimum. *)

type side = {
  cost : float;  (** accumulated cost of the subtree *)
  card : float;  (** estimated output cardinality *)
  shape : string;  (** one-line rendering of the subtree *)
}

type entry = {
  set : Nodeset.Node_set.t;  (** relations the subtree covers *)
  left : side option;  (** [None]: the left plan has no such subtree *)
  right : side option;
}

type t = {
  entries : entry list;
      (** every subtree set of either plan, ascending by cardinality
          then set order (so the first divergent entry is the smallest
          disagreement) *)
  left_total : float;
  right_total : float;
}

val diff : Plan.t -> Plan.t -> t
(** Align two plans over the same graph by the relation set of each
    subtree. *)

val matching : entry -> bool
(** Both sides present with (numerically) equal cost and
    cardinality. *)

val divergent : t -> entry list
(** The non-{!matching} entries, smallest subtrees first. *)

val first_divergence : t -> entry option
(** The smallest subtree the two plans built differently; [None] when
    the plans align everywhere. *)

val pp :
  ?names:(int -> string) ->
  ?labels:string * string ->
  Format.formatter ->
  t ->
  unit
(** Aligned table of the divergent entries (matching subtrees are
    summarized as one count line), followed by the total-cost line.
    [names] renders relation indices; [labels] names the two sides
    (default ["left"]/["right"]). *)

val report :
  ?names:(int -> string) -> ?labels:string * string -> Plan.t -> Plan.t -> string
(** [diff] + [pp] to a string — the one-call form the test suites
    embed in failure messages. *)
