(** JSON string escaping, shared by every emitter in the library.

    OCaml's [Printf %S] escapes control characters in OCaml lexical
    conventions (decimal [\027]), which is {e not} valid JSON.  The
    span and Chrome-trace renderers and the telemetry exporter all
    quote strings through this module instead, so span
    and metric names containing quotes, backslashes or control
    characters always produce parseable documents. *)

val escape : string -> string
(** The JSON-escaped body of [s], without surrounding quotes:
    double quotes and backslashes get a backslash prefix, the common
    C0 control characters become the two-character escapes
    ([\n], [\r], [\t], [\b], [\f]) and the
    rest of C0 becomes [\uXXXX]; everything else — including
    non-ASCII bytes, which are assumed to be UTF-8 — passes through
    unchanged. *)

val quote : string -> string
(** [escape s] wrapped in double quotes: a complete JSON string
    literal. *)
