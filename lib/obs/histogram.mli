(** HDR-style log-linear latency histograms.

    A histogram records non-negative integers (by convention
    nanoseconds) into a fixed grid of buckets: unit-width buckets
    below 128, then 64 equal sub-buckets per power-of-two octave, so
    any recorded value is representable within a relative error of
    1/64 (~1.6%) — exact below 128 — up to [max_int].  The grid is a
    fixed-size int array (no allocation per record, no floats on the
    hot path).

    {2 Concurrency}

    A histogram is not synchronized: its owner serializes every
    {!record} and {!snapshot}.  {!Export} records each sample and
    takes each snapshot under its registry lock, so histograms reached
    through a registry may be fed from any number of domains.

    {2 Queries}

    All queries run on immutable {!snapshot}s.  {!quantile} is
    nearest-rank: the reported value lies in the same bucket as the
    exact sorted-list quantile, i.e. within one bucket's relative
    error. *)

type t
(** A live histogram: one bucket array plus count, sum, min and max. *)

val create : unit -> t

val record : t -> int -> unit
(** Record one value.  Negative values clamp to 0, values above
    [max_int]'s bucket range clamp to the top bucket. *)

type snapshot
(** An immutable copy of a histogram. *)

val snapshot : t -> snapshot

val count : snapshot -> int
(** Total recorded values. *)

val sum : snapshot -> int
(** Sum of all recorded values (exact — summed at record time, not
    reconstructed from buckets). *)

val mean : snapshot -> float
(** [sum / count]; 0 when empty. *)

val min_recorded : snapshot -> int
(** Exact minimum recorded value; 0 when empty. *)

val max_recorded : snapshot -> int
(** Exact maximum recorded value; 0 when empty. *)

val quantile : snapshot -> float -> int
(** [quantile s q] — the value at rank [ceil (q * count)] (nearest
    rank, [q] clamped to [0,1]), reported as the inclusive upper
    bound of its bucket and clamped to {!max_recorded}.  0 when
    empty.  Guaranteed [exact <= quantile] and
    [quantile - exact <= exact / 64]. *)

val count_le : snapshot -> int -> int
(** Observations [<= v], counted in whole buckets (the straddling
    bucket is excluded — an undercount of at most one bucket width).
    This is the cumulative-bucket query behind Prometheus [le]
    series. *)

(**/**)

val bucket_of : int -> int
(** Bucket index of a value (exposed for tests). *)

val bucket_high : int -> int
(** Inclusive upper bound of a bucket index (exposed for tests). *)
