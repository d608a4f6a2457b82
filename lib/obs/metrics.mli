(** The per-phase explain table of one observed run.

    A run's profile is its span tree: the spans a {!Span.ctx}
    collected, plus the collector's elapsed time.  {!pp_table} renders
    it as the table behind [joinopt explain] / [joinopt --profile].
    Every other fact of the run (counters, tier attempts, DP-table
    occupancy, plan-cache counters) is printed by the module that
    owns its record, not mirrored here. *)

val sort : Span.span list -> Span.span list
(** Chronological order with a total (start, depth, name) tie-break:
    concurrent spans can share a start timestamp, and [--stable]
    diffs need byte-stable rows however the scheduler interleaved
    them. *)

val pp_table : Format.formatter -> Span.ctx -> unit
(** One row per span of the collector, {!sort}ed and indented by
    nesting depth, with milliseconds, minor- and major-heap words
    (large tables are allocated straight on the major heap) and the
    pairs/ccp/rejected attributes where a phase recorded them, then a
    [total:] line with the collector's elapsed time at printing and
    the share of it the top-level phases cover. *)
