(** JSONL trace files — the one container between [jordctl run --trace-out]
    and [jordctl trace] / [jordctl slo], for both trace kinds.

    Line 1 is a header object whose first key names the kind and its
    format version: [jord_trace] for a single-node or cluster event ring
    (emission totals, truncation flag), [jord_fleet_trace] for a fleet's
    tail-sampled span set (offered/retained counts, sampler seed and
    reservoir); caller metadata such as [variant] and [orch_cores] follows.
    Each further line is one event, oldest retained first, or one span, by
    request id. All times are integer picoseconds, so files round-trip
    exactly — the conservation identity survives save/load, unlike the
    Chrome export's float microseconds. *)

val format_version : int
(** Of both kinds. *)

val save :
  path:string -> ?meta:(string * Jord_util.Json.t) list -> Jord_faas.Trace.t -> unit
(** Write a ring's retained window. [meta] is appended to the header object. *)

val save_fleet :
  path:string -> ?meta:(string * Jord_util.Json.t) list -> Ftrace.t -> unit
(** Write a fleet tracer's retained set. [meta] is appended to the header
    object. *)

type server = {
  events : Jord_faas.Trace.event list;  (** Oldest first. *)
  truncated : bool;
  total_emitted : int;
  capacity : int;
  meta : Jord_util.Json.t;  (** The whole header object. *)
}

type fleet = {
  spans : (string * Fspan.t) list;  (** [(keep_reason, span)], by req id. *)
  offered_total : int;
  meta : Jord_util.Json.t;  (** The whole header object. *)
}

type t = Server of server | Fleet of fleet

val load : path:string -> (t, string) result
(** The kind follows the header key. Errors name the file, and the line
    for a malformed one. *)

val orch_cores : server -> int list
(** The [orch_cores] header list ([[]] when absent). *)

val spans : server -> Span.result
(** Build the span forest from a loaded file (truncation propagated). *)
