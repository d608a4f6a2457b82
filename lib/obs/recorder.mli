(** A flight recorder for the serving path: the last N requests, each
    as a flat telemetry record, with slow requests keeping their full
    span tree.

    The ring buffer is fixed-size — memory stays bounded however long
    the process serves — and appends are mutex-serialized (one short
    critical section per request, negligible next to an
    optimization).  When a request's wall clock reaches the {e slow
    threshold}, its span list is {e promoted} into the ring alongside
    the flat record, so "which requests were slow, and where did the
    time go" is answerable after the fact without re-running anything;
    fast requests drop their spans and cost a dozen words each. *)

type request = {
  seq : int;  (** arrival number, 0-based, never reset *)
  fingerprint : string;  (** canonical graph fingerprint (hex) *)
  relations : int;  (** relations in the query graph *)
  algo : string;  (** requested algorithm *)
  tier : string option;  (** winning adaptive tier, when one ran *)
  cache : string option;  (** plan-cache outcome: hit/miss/coalesced *)
  pairs : int;  (** candidate pairs the request considered *)
  wall_s : float;  (** end-to-end wall clock, seconds *)
  minor_words : float;
      (** minor-heap words the serving domain allocated across the
          request ({!Span.minor_words}; other domains are not
          counted) *)
  major_words : float;  (** major-heap words, same domain *)
  spans : Span.span list;
      (** full span tree — non-empty only for slow requests *)
}

type t

val create : ?slow_s:float -> capacity:int -> unit -> t
(** A recorder retaining the last [capacity] requests.  [slow_s]
    (default 0.1) is the promotion threshold in seconds.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val slow_threshold_s : t -> float

val record :
  t ->
  fingerprint:string ->
  relations:int ->
  algo:string ->
  ?tier:string ->
  ?cache:string ->
  pairs:int ->
  wall_s:float ->
  minor_words:float ->
  major_words:float ->
  ?spans:Span.span list ->
  unit ->
  unit
(** Append one request record, assigning its [seq].  [spans] are
    kept only when [wall_s] reaches the slow threshold.
    Thread-safe. *)

val recorded : t -> int
(** Requests ever recorded (>= the number retained). *)

val to_list : t -> request list
(** Retained records, oldest first (ascending [seq]). *)

val slowest : t -> int -> request list
(** The top-k retained records by wall clock, slowest first (ties by
    arrival order). *)
