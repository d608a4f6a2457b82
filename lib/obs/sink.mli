(** Pluggable destinations for completed observability spans.

    A sink receives every span the moment it closes.  The [Null] sink
    drops them (the zero-cost default — the instrumented libraries
    additionally guard every span behind an [?obs] option, so code
    that is not handed a collector pays nothing at all); [Memory]
    accumulates them in a list; [Jsonl] streams one JSON object per
    line; [Chrome] buffers and, on {!close}, writes a Chrome
    trace-event file loadable in Perfetto ({:https://ui.perfetto.dev})
    or [chrome://tracing]. *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Span attribute values (counters, tier names, flags). *)

type span = {
  name : string;  (** phase name, e.g. ["enumerate:dphyp"] *)
  depth : int;  (** nesting depth; 0 = top-level pipeline phase *)
  start_s : float;  (** seconds since the owning collector's epoch *)
  dur_s : float;  (** wall-clock duration in seconds *)
  minor_words : float;
      (** [Gc.quick_stat] minor-allocation delta across the span,
          children included *)
  major_words : float;  (** major-heap allocation delta *)
  attrs : (string * value) list;  (** in the order they were set *)
}

type chrome
(** Buffer state of a Chrome-trace sink (written on {!close}). *)

type t =
  | Null
  | Memory of span list ref  (** most recently completed span first *)
  | Jsonl of out_channel
  | Chrome of chrome

val chrome : string -> t
(** A Chrome-trace sink that will write to this path on {!close}. *)

val emit : t -> span -> unit
(** Thread-safe: a process-wide mutex serializes every non-[Null]
    emission, so several domains (e.g. the batch pipeline's
    per-query span contexts) may share one sink; [Jsonl] lines never
    interleave.  Span {e contexts} remain single-domain — only the
    sink is shared. *)

val close : t -> unit
(** Close the underlying channel ([Jsonl] — [emit] already flushes
    after every span, so a crashed run leaves a readable trace even
    without this call) or write out ([Chrome]) the sink.  [Null] and
    [Memory] are no-ops. *)

val span_to_json : span -> string
(** One span as a single-line JSON object with keys [name], [depth],
    [start_ms], [ms], [minor_words], [major_words], [attrs] — one
    [Jsonl] sink line, and one span of a slow request in the
    [obs_telemetry/v1] export. *)

val chrome_trace_json : span list -> string
(** A complete Chrome trace-event JSON document (["X"] duration
    events, microsecond timestamps, attributes as [args]). *)

val write_chrome : string -> span list -> unit
(** [chrome_trace_json] to a file. *)
