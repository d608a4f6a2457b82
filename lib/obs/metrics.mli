(** Structured run profiles: spans + counter snapshots in one record.

    A {!profile} is what the pipeline hands back when observability is
    on — every phase span of the run, a snapshot of the enumeration
    counters (the machine-independent work measures of
    [Core.Counters]), the DP-table occupancy, and the adaptive
    tier-ladder attempts.  {!pp_table} renders the per-phase table
    behind [joinopt explain] / [joinopt --profile].

    This module deliberately speaks in plain ints and strings so that
    the [obs] library stays below every other layer — [Core] converts
    its own counter and tier types into these records. *)

type counters = {
  pairs_considered : int;
  ccp_emitted : int;
  cost_calls : int;
  filter_rejected : int;
  neighborhood_calls : int;
  budget_limit : int option;  (** [None] = unlimited *)
  budget_remaining : int option;  (** headroom left, [None] = unlimited *)
}

type tier_attempt = {
  tier : string;  (** ["exact"], ["idp-7"], ["greedy"], ... *)
  completed : bool;  (** false when the budget ran out mid-attempt *)
  pairs : int;  (** pairs the attempt consumed *)
}

type quality = {
  q_tier : string;  (** tier/algorithm that produced the measured plan *)
  est_cout : float;  (** optimizer-estimated C_out of the chosen plan *)
  measured_cout : float;  (** executed C_out (sum of actual join rows) *)
  exact_cout : float option;
      (** executed C_out of the {e exact} (DPhyp) plan on the same
          instance, when one was computed *)
  delta : float option;
      (** [measured_cout / exact_cout] — the per-tier plan-quality
          price of graceful degradation, 1.0 = no quality lost *)
}
(** Measured plan quality — what EXPLAIN ANALYZE records so the
    adaptive ladder's quality/time tradeoff is grounded in executed
    row counts, not estimates. *)

type cache_stats = {
  cache_hits : int;
  cache_misses : int;
  cache_coalesced : int;  (** requests served by a concurrent miss *)
  cache_evictions : int;
  cache_entries : int;  (** resident entries at snapshot time *)
  cache_capacity : int;
}
(** Plan-cache counter snapshot — what [joinopt explain] and
    [joinopt cache-stats] report when the run went through a
    [Cache.Plan_cache].  Like {!counters} this is a plain-int record:
    the live (atomic) counters belong to the cache library, which
    sits above [obs]. *)

type profile = {
  spans : Sink.span list;  (** chronological by start time *)
  total_s : float;  (** wall clock of the whole observed run *)
  counters : counters option;
  dp_entries : int;  (** DP/memo table occupancy of the winning run *)
  tiers : tier_attempt list;  (** adaptive ladder attempts, in order *)
  winning_tier : string option;
  quality : quality option;  (** measured plan quality, when executed *)
  cache : cache_stats option;  (** plan-cache snapshot, when one was used *)
  provenance : (string * float) list;
      (** search-space provenance summary: the costliest memo subsets
          of the run as pre-rendered [(label, cost)] pairs — populated
          when the run was provenance-recorded ([?inspect]), empty
          otherwise.  Plain strings on purpose: the inspect layer owns
          the plan types, [obs] stays at the bottom. *)
}

val make :
  ?counters:counters ->
  ?dp_entries:int ->
  ?tiers:tier_attempt list ->
  ?winning_tier:string ->
  ?quality:quality ->
  ?cache:cache_stats ->
  ?provenance:(string * float) list ->
  total_s:float ->
  Sink.span list ->
  profile
(** Sorts the spans chronologically. *)

val with_quality : profile -> quality -> profile
(** Attach a measured-quality record to an already-built profile (the
    optimizer builds profiles before any plan is executed; EXPLAIN
    ANALYZE adds the measurement afterwards). *)

val with_cache : profile -> cache_stats -> profile
(** Attach a plan-cache snapshot (the driver adds it after the
    optimizer built the base profile, mirroring {!with_quality}). *)

val with_provenance : profile -> (string * float) list -> profile
(** Attach a provenance summary (the driver adds it after a
    provenance-recorded run, mirroring {!with_cache}). *)

val pp_table : Format.formatter -> profile -> unit
(** The per-phase explain table: one row per span (indented by
    nesting depth) with milliseconds, minor-heap words, and the
    pairs/ccp/rejected attributes where a phase recorded them,
    followed by totals, the counter snapshot (with budget context),
    the winning tier and the DP-table occupancy. *)
