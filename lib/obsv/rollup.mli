(** Fleet-level SLO rollup.

    The fleet's feeder for {!Slo.evaluator}: the same objectives, windows,
    burn-rate rule and verdicts as {!Online}, fed from the fleet load
    balancer's request completions instead of trace spans. The fleet layer
    models servers at request granularity, so each finished (or shed)
    request is one observation. An objective's windows advance only on
    observations it matches, and {!finish} closes the final partial window
    only when it saw traffic. Latencies aggregate into one mergeable
    {!Jord_telemetry.Sketch} per objective; everything is integer-ps and
    event-time driven, so the verdict table is byte-identical at any shard
    count. *)

(** Exemplar plumbing toward the fleet tracer: a [Candidate] fires when an
    observation becomes the open window's max-latency trace (park its
    span); [Promoted] fires when the window closes on it (pin the parked
    span into the retained trace set). *)
type exemplar_event =
  | Candidate of { objective : string; id : int }
  | Promoted of { objective : string; id : int; window : int }

type t

val create : Slo.objective list -> t

val objectives : t -> Slo.objective list

val set_exemplar_hook : t -> (exemplar_event -> unit) -> unit

val observe :
  t -> trace_id:int -> at_ps:int -> fn:string -> latency_ps:int -> shed:bool -> unit
(** Record one decided request for entry function [fn] at event time
    [at_ps] (nondecreasing across calls). A shed request consumes budget
    without a latency; a completed one is bad only if the objective is
    latency-kind and [latency_ps] exceeds its threshold. [trace_id] (-1 =
    untraced) feeds the exemplar machinery: the window and whole-run
    max-latency observations remember it, ties toward the smaller id so
    exemplars are drain-order independent. An untraced call allocates
    nothing. *)

val finish : t -> now_ps:int -> unit
(** Close every window through [now_ps], and the final partial one if it
    saw traffic. Call once after the fleet drains; reports are stable
    afterwards. *)

type row = {
  r_objective : Slo.objective;
  r_requests : int;  (** Decided requests matching the objective. *)
  r_bad : int;  (** Budget-consuming requests (includes [r_shed]). *)
  r_shed : int;
  r_quantile_ps : int;  (** Sketch at the objective's percentile. *)
  r_budget_used : float;  (** Percent of the error budget consumed. *)
  r_windows_closed : int;
  r_fired : int;
  r_resolved : int;
  r_firing : bool;
  r_verdict : string;  (** ["met"], ["VIOLATED"], ["FIRING"], ["no-data"]. *)
  r_exemplar_ps : int;  (** -1 when the run carried no trace ids. *)
  r_exemplar : int;  (** Max-latency retained trace id, or -1. *)
}

val rows : t -> row list

val windows : t -> (string * Slo.window list) list
(** Closed-window history per objective, oldest first. *)

val transitions : t -> Slo.transition list
(** Chronological, across objectives. *)

val report_text : t -> string
(** Verdict table plus the alert log (same columns as the Online report). *)

val report_json : t -> string

val report_csv : t -> string
(** Flat CSV in the {!Export.blame_csv} convention: a header line, then one
    row per (objective, closed window) with the objective-level columns
    repeated; an objective with no closed windows emits a single row with
    [window = -1]. *)

val parse_csv : string -> ((string * string) list list, string) result
(** Inverse of {!report_csv}: each data line becomes a
    [(column, value)] assoc list keyed by the header. *)
