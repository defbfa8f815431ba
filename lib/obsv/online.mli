(** The online SLO plane of the detailed server and cluster: streaming
    span completion feeding one {!Slo.evaluator} per objective — the
    post-hoc span attribution made available {e at sim time}.

    The pipeline rides the {!Jord_faas.Trace} emit sink ({!attach}): every
    event a server/orchestrator emits is folded into an incremental span
    (the same {!Span.feed} the post-hoc builder uses, which is why the
    online aggregates are {e exactly} equal to the post-hoc fold — the
    qcheck suite asserts integer-ps equality). A root is decided when it
    completes, in the window of its end, or is shed (queue-full drop,
    deadline timeout), in the window of the shedding instant: a shed root
    is bad without a latency observation. Every event's timestamp advances
    the evaluators' windows, so a window closes once the event-time
    watermark passes its end, and {!finish} closes the final partial one.
    Windows, burn rates, transitions, the latency sketch and verdicts are
    the evaluator's ({!Slo}); this module adds the span-side aggregates:
    exact end-to-end and per-phase sums, and a completion sketch per
    server (deterministic, associative merging means cluster members roll
    up in any order into the evaluator's sketch).

    Fire/resolve transitions are emitted as [Alert] trace events (with
    [req_id = -1]) so Perfetto timelines show SLO breaches against the
    spans that caused them. *)

type objective_snapshot = {
  s_objective : Slo.objective;
  s_completed : int;
  s_shed : int;
  s_bad : int;  (** Includes [s_shed]. *)
  s_e2e_sum_ps : int;  (** Exact integer sum over completed roots. *)
  s_phase_sum_ps : int array;  (** Indexed by {!Span.phase_index}; exact. *)
  s_sketch : Jord_telemetry.Sketch.t;  (** All completions, merged. *)
  s_quantile_ps : int;  (** [s_sketch] at the objective's percentile. *)
  s_windows_closed : int;
  s_fired : int;
  s_resolved : int;
  s_firing : bool;
  s_transitions : Slo.transition list;  (** Chronological. *)
  s_windows : Slo.window list;  (** Chronological. *)
  s_per_sid : (int * Jord_telemetry.Sketch.t) list;
      (** Completion sketches per server id, ascending — merging these in
          any order reproduces [s_sketch] (asserted by the tests). *)
}

type t

val create : Slo.objective list -> t

val attach : t -> Jord_faas.Trace.t -> unit
(** Install {!observe} as the tracer's emit sink and use the tracer for
    [Alert] transition events. *)

val observe : t -> Jord_faas.Trace.event -> unit
(** Feed one event (events must arrive in emission order). System events
    ([req_id < 0], e.g. this pipeline's own alerts) are ignored. *)

val finish : t -> now_ps:int -> unit
(** Close every window through [now_ps], then the final partial one. Call
    once, after the engine drains; reports are stable afterwards. *)

val replay :
  objectives:Slo.objective list -> ?finish_ps:int ->
  Jord_faas.Trace.event list -> t
(** Offline evaluation of a recorded trace: feed every event in order and
    {!finish} at [finish_ps]. The default is the latest instant a root was
    decided, so a completion that ends after the last event still lands in
    a closed window. Live and replayed pipelines over the same events
    produce identical snapshots. *)

val objectives : t -> Slo.objective list
val snapshot : t -> objective_snapshot list
val transitions : t -> Slo.transition list
(** All objectives' transitions, chronological. *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the [jord_slo_*] families ([requests/bad/shed/windows_closed/
    alerts_fired/alerts_resolved] counters and [firing]/
    [budget_remaining_ratio] gauges), one instance per objective, labeled
    [slo=<name>]. *)

val report_text : t -> string
(** Per-objective verdict table plus the alert log. *)

val alerts_text : t -> string
val burn_text : t -> string
(** Alert log alone / per-window burn-rate table with a sparkline. *)

val report_json : t -> string
val alerts_json : t -> string
(** Machine-readable snapshot / alert log (the CI artifact). *)

val burn_csv : t -> string
(** One row per (objective, closed window). *)
