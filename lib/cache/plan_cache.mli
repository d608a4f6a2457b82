(** A concurrent memoized plan cache: lock-striped shards, bounded
    capacity with cost-aware LRU eviction, and single-flight stampede
    protection.

    {2 Keys}

    A {!key} pairs an {e exact} textual key (e.g. the verbatim
    {!Hypergraph.Serialize.to_string} of the graph plus the optimizer
    parameters) with the graph's {!Fingerprint.t}.  The exact key alone
    routes shards and decides hits: two requests hit the same entry iff
    their exact keys are byte-equal, which is what makes cached results
    byte-identical to fresh ones.  The fingerprint only labels the
    request; a miss computes it and stores it with the entry, and a hit
    or a coalesced wait reads that copy back (equal keys, equal graph).

    {2 Concurrency}

    Safe to share across domains (e.g. the workers of
    [Parallel.Pool]).  Each shard has its own mutex, so requests for
    different shards never contend; the global counters are
    [Atomic.t], bumpable from any domain.  The user-supplied compute
    function runs {e outside} every lock.

    Single flight: when N requests miss on the same key
    concurrently, exactly one runs the computation; the other N−1
    block on the shard's condition variable and are handed the
    published value (counted as [coalesced], not as hits or misses).
    If the computation raises, the in-flight marker is removed, every
    waiter retries from scratch, and the exception propagates to the
    original caller.

    {2 Eviction}

    GreedyDual: each entry carries a priority [clock + opt_ms], where
    [opt_ms] is the measured wall-clock of the computation that
    produced it and [clock] is a per-shard logical clock.  A hit
    refreshes the priority; eviction removes the minimum-priority
    entry and advances the clock to it.  The effect is LRU weighted
    by the recorded optimization time: cheap-to-recompute plans are
    evicted first, expensive plans must age proportionally longer.
    Capacity is divided evenly across shards (so it is enforced
    per-shard, approximately overall); in-flight entries are never
    evicted. *)

type key

val key : fingerprint:Fingerprint.t -> exact:string -> key

val deferred_key : fingerprint:Fingerprint.t Lazy.t -> exact:string -> key
(** Forced only by a miss, or by {!fingerprint} before any lookup. *)

val fingerprint : key -> Fingerprint.t
(** After a lookup that found an entry, the entry's fingerprint. *)

type 'v t

val create : capacity:int -> 'v t
(** [create ~capacity] — a cache holding at most [capacity] completed
    entries, striped over up to 16 independently locked shards.
    Capacity is enforced per shard, so the stripe count is clamped
    down until each shard holds at least 4 entries — a one-entry shard
    would let two colliding hot keys evict each other on every
    request.
    @raise Invalid_argument if [capacity < 1]. *)

type outcome =
  | Hit  (** served from the cache *)
  | Miss  (** computed (and stored) by this request *)
  | Coalesced  (** waited for a concurrent miss on the same key *)

val outcome_name : outcome -> string
(** ["hit"], ["miss"], ["coalesced"]. *)

val find_or_compute : 'v t -> key -> (unit -> 'v) -> 'v * outcome
(** Return the cached value for [key], or run the computation —
    exactly once across concurrent requesters — and cache it. *)

val find : 'v t -> key -> 'v option
(** Peek without computing or waiting; does not touch any counter and
    does not refresh recency. *)

type stats = {
  hits : int;
  misses : int;
  coalesced : int;
  evictions : int;
  entries : int;  (** completed entries currently resident *)
  capacity : int;
}

val stats : 'v t -> stats

val capacity : 'v t -> int

val shard_entries : 'v t -> int array
(** Completed entries resident in each shard, in shard order — the
    per-shard occupancy gauges of the telemetry export.  Each shard
    is counted under its own lock; the array is a consistent-enough
    snapshot for monitoring (shards are not frozen jointly). *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: [hits=… misses=… coalesced=… evictions=… entries=…/…]. *)
