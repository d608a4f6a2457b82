(** Nested phase spans: wall clock + GC allocation deltas.

    A {!ctx} is a collector created around one optimizer run.  Every
    {!with_} call times a phase (parse, simplify, conflict analysis,
    enumeration, an IDP round, an adaptive tier attempt, ...),
    captures the allocation delta read from [Gc.counters] and records
    the completed {!span} in the collector.  The words are the calling
    domain's exact counts, even when no collection ran inside the
    span; allocation by other domains (the workers of a [--jobs N]
    run) is not in them.  The collector is the only
    place spans go: profiles ({!Metrics.pp_table}), telemetry and the
    flight recorder read them back with {!spans} / {!spans_since}, and
    [--trace-out] writes them with {!write_chrome}.

    The instrumented libraries take the collector as an [?obs]
    {e option}: code that is not handed one runs the un-instrumented
    path and pays nothing — this is the guarantee behind the
    "observability must not perturb enumeration" tests.  Spans close
    on exceptions too (tagged with a ["raised"] attribute), so a
    budget-exhausted tier attempt still shows up in the trace.  A
    collector belongs to one domain at a time. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Span attribute values (counters, tier names, flags). *)

type span = {
  name : string;  (** phase name, e.g. ["enumerate:dphyp"] *)
  depth : int;  (** nesting depth; 0 = top-level pipeline phase *)
  start_s : float;  (** seconds since the owning collector's epoch *)
  dur_s : float;  (** wall-clock duration in seconds *)
  minor_words : float;
      (** minor-heap words the calling domain allocated across the
          span, children included *)
  major_words : float;
      (** major-heap words the calling domain allocated across the
          span, promoted and direct *)
  attrs : (string * value) list;  (** in the order they were set *)
}
(** A closed span. *)

type ctx
(** A span collector: an epoch and the recorded spans. *)

type t
(** An open span handle, used to attach attributes before it closes. *)

val now : unit -> float
(** The one clock every component reports from ([Unix.gettimeofday],
    seconds).  Benchmarks and pipeline profiles both use this. *)

val create : unit -> ctx
(** Fresh collector; the epoch is [now ()]. *)

val elapsed : ctx -> float
(** Seconds since the collector was created. *)

val spans : ctx -> span list
(** Completed spans in completion order (children before parents). *)

type mark
(** A point in a collector's history, so one request on a reused
    collector can read back only its own spans. *)

val mark : ctx -> mark
(** The collector's history as of now. *)

val spans_since : ctx -> mark -> span list
(** The spans completed after [mark], in completion order. *)

val with_ : ctx -> ?attrs:(string * value) list -> string -> (t -> 'a) -> 'a
(** [with_ ctx name f] runs [f] under a span called [name] nested
    inside the currently open span.  The span closes when [f]
    returns {e or raises} (the exception is re-raised after tagging
    the span with ["raised"]). *)

val set : t -> string -> value -> unit
(** Attach an attribute to an open span (e.g. counters at close). *)

val with_opt :
  ctx option -> ?attrs:(string * value) list -> string -> (t option -> 'a) -> 'a
(** [with_] through an [?obs] option: with [None] it just runs [f
    None] — the zero-cost disabled path. *)

val set_opt : t option -> string -> value -> unit

(** {2 Export} *)

val span_to_json : span -> string
(** One span as a single-line JSON object with keys [name], [depth],
    [start_ms], [ms], [minor_words], [major_words], [attrs] (sorted
    by key) — one span of a slow request in the [obs_telemetry/v1]
    export. *)

val chrome_trace_json : span list -> string
(** A complete Chrome trace-event JSON document, loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]: one ["X"]
    duration event per span in list order, microsecond timestamps,
    the allocation deltas and attributes as [args]. *)

val write_chrome : string -> span list -> unit
(** [chrome_trace_json] to a file. *)
