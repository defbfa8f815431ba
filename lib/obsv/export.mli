(** Trace exporters: the one Chrome/Perfetto writer, used for the live
    ring ([jordctl run --trace]) and for a loaded trace file
    ([jordctl trace export]) alike, plus blame profiles.

    [chrome_json] produces a [traceEvents] document with [ph:"M"]
    process/thread metadata and [ph:"s"]/[ph:"f"] flow arrows for
    parent->child spawns (flow id = child request id) and forward->arrive
    wire hops (flow ids offset by [2^30]). [blame_json] / [blame_csv]
    export the per-function phase attribution and mean critical-path
    blame. *)

val chrome_json :
  ?orch_cores:int list -> events:Jord_faas.Trace.event list -> Span.result -> string
(** Threads on the cores in [orch_cores] are named "orchestrator (core N)",
    the rest "core N". *)

val meta : pid:int -> ?tid:int -> name:string -> string -> Jord_util.Json.t
(** [meta ~pid ?tid ~name what]: a [ph:"M"] metadata record ([what] is
    ["process_name"] or ["thread_name"]) naming a track [name]. *)

val flow :
  ph:string -> id:int -> pid:int -> tid:int -> ts:int -> name:string -> Jord_util.Json.t
(** One end of a flow arrow: [ph] is ["s"] (start) or ["f"] (finish, bound
    to the enclosing slice); [ts] in picoseconds. *)

val blame_json : Span.result -> string
val blame_csv : Span.result -> string

(** {2 Blame-profile rows shared with {!Freport}} *)

val fn_fields :
  names:string array -> Report.fn_stats -> (string * Jord_util.Json.t) list
(** The leading JSON fields of one function's profile: [fn], [count],
    [mean_us], [p50_us], [p99_us] and [phase_mean_ns] (one key per phase
    name). *)

val profile_csv :
  names:string array -> last:string -> (Report.fn_stats * float array) list -> string
(** The flat blame CSV: a header ending in column [last], then one row per
    (function, phase) whose last cell is that phase's value. *)
