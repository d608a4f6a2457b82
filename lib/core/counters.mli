(** Machine-independent work counters.

    The paper's central argument is about {e how much work} each
    enumeration strategy does: DPhyp touches exactly the csg-cmp-pairs
    while DPsize and DPsub burn their time on candidate pairs that
    fail the [( * )] tests of Figure 1.  Every algorithm in this library
    maintains one of these records so benchmarks can report the
    counters next to wall-clock time.

    The [pairs_considered] counter doubles as a {e deterministic work
    budget}: a counter created with [~budget:b] raises
    {!Budget_exhausted} from {!tick_pair} as soon as the (b+1)-th pair
    is considered.  Because every enumerator charges its candidate
    pairs through [tick_pair], the budget measures enumeration effort
    in a machine-independent unit — the same graph and budget always
    stop at the same point, so tests never depend on wall-clock
    time. *)

exception Budget_exhausted
(** Raised by {!tick_pair} when the work budget is spent. *)

type t = {
  mutable pairs_considered : int;
      (** candidate pairs examined, including ones failing the
          disjointness/connectivity/filter tests *)
  mutable ccp_emitted : int;
      (** csg-cmp-pairs that reached plan construction (EmitCsgCmp);
          for DPhyp this equals the number of csg-cmp-pairs when no
          filter rejects *)
  mutable cost_calls : int;
      (** argument orders actually priced: two for a commutative
          operator, except a plain inner join under a symmetric model
          (C_out), priced once; on inner joins a DPhyp run reads
          [ccp] under C_out and [2 × ccp] under C_mm *)
  mutable filter_rejected : int;
      (** pairs rejected by an external validity filter (CD-C, or
          the generate-and-test baseline of Section 5.8) *)
  mutable neighborhood_calls : int;
      (** N(S,X) evaluations (DPhyp, DPccp); a recursive call whose
          neighborhood must be empty is not made, so not counted *)
  mutable budget_limit : int;
      (** maximum [pairs_considered] before {!Budget_exhausted};
          [max_int] means unlimited *)
}

val create : ?budget:int -> unit -> t
(** Fresh counters.  [?budget] caps [pairs_considered]; omitting it
    means unlimited work.  @raise Invalid_argument on a negative
    budget. *)

val absorb : into:t -> t -> unit
(** [absorb ~into c] adds [c]'s tallies into [into], leaving both
    budget limits alone (the adaptive ladder frames GOO's unbudgeted
    counts in the request's budget this way). *)

val budget : t -> int option
(** The budget the counters were created with, if any. *)

val remaining : t -> int option
(** Headroom left under the budget ([limit - pairs_considered],
    floored at 0); [None] when unlimited. *)

val tick_pair : t -> unit
(** Charge one considered pair.  @raise Budget_exhausted when the
    budget is exceeded. *)

val reset : t -> unit
(** Zero all counters.  The budget limit is kept. *)

val pp : Format.formatter -> t -> unit
(** Prints every counter plus the budget context: [budget=unlimited],
    or the limit together with the remaining headroom. *)
