(** The serving-telemetry registry and its export formats.

    An {!t} holds named, labeled instruments — latency
    {!Histogram}s, counters, gauges — plus one
    {!Recorder} flight recorder, and renders them three ways:

    - {!prometheus}: Prometheus text exposition ([# HELP]/[# TYPE],
      cumulative [_bucket{le=...}] series, [_sum]/[_count]);
    - {!to_json}: the [obs_telemetry/v1] JSON snapshot
      (per-series count/mean/p50/p95/p99/p999/max plus the top-k
      slowest requests from the recorder);
    - {!print_stats}: the human table behind [joinopt stats].

    Every rendering sorts series by (metric name, labels), so output
    is deterministic regardless of registration or recording order.

    Naming conventions (matching Prometheus guidance): metrics are
    prefixed [joinopt_], durations are histograms in {e seconds}
    with a [_seconds] suffix (recorded internally in nanoseconds),
    counters end in [_total]. *)

type t

val create : ?slow_s:float -> unit -> t
(** A fresh registry with an empty flight recorder of 256 requests;
    [slow_s] is the recorder's span-promotion threshold. *)

val recorder : t -> Recorder.t

(** {2 Series}

    Each call gets or creates the series [name]\{[labels]\} and
    updates it under the registry's one lock, so a registry may be
    fed from any number of domains.  The first [help] ever supplied
    for a metric name is the one exported. *)

val observe :
  t -> ?help:string -> ?labels:(string * string) list -> string -> int -> unit
(** Record one value (nanoseconds, by convention) into a histogram
    series. *)

val observe_s :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  string ->
  float ->
  unit
(** [observe] taking seconds and converting to nanoseconds. *)

val set_counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> int -> unit
(** Set a counter series to an absolute value. *)

val set_gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

(** {2 Shared key=value formatting}

    [Counters.pp], [Plan_cache.pp_stats] and [joinopt stats] all
    print through these helpers, so the same quantity can never be
    formatted two different ways by two different subcommands. *)

val kv : string -> string -> string * string

val kv_int : string -> int -> string * string

val kv_ratio : string -> int -> int -> string * string
(** [kv_ratio k a b] renders as [k=a/b]. *)

val pp_kvs : Format.formatter -> (string * string) list -> unit
(** Space-separated [k=v] pairs, in the given order. *)

val hit_ratio : hits:int -> coalesced:int -> misses:int -> float
(** [(hits + coalesced) / (hits + coalesced + misses)]; 0 when no
    requests were served. *)

(** {2 Rendering} *)

val prometheus : t -> string
(** Prometheus text exposition of every series.  Histogram buckets
    use a fixed ladder of seconds boundaries (10us .. 10s) computed
    from the nanosecond grid, plus [+Inf]; label values are escaped
    per the exposition format; no value ever renders as NaN or
    infinity. *)

val to_json : ?top:int -> t -> string
(** The [obs_telemetry/v1] snapshot: sorted histogram / counter /
    gauge series (latencies in milliseconds) and the [top] (default
    5) slowest recorded requests, each with its promoted span tree
    when one was kept. *)

val print_stats : ?top:int -> Format.formatter -> t -> unit
(** Human-readable table: per-series latency summary, counters,
    gauges, plan-cache hit ratio (when cache counters are present)
    and the top-[top] slowest requests. *)
