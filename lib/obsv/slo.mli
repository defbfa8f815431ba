(** Declarative SLO objectives and the one evaluator that scores them.

    An objective states a latency target over a workload: "the [percentile]
    latency of roots entering [fn] stays under [threshold_ps], with an
    error budget of [budget] (the fraction of requests allowed to miss the
    threshold — shed requests count as misses)". An {!evaluator} scores it
    over tumbling sim-time windows of [window_ps] and runs the Google-SRE
    multi-window burn-rate rule: the alert fires when the budget burn rate
    over the last [fast_windows] windows {e and} over the last
    [slow_windows] windows both reach [burn_threshold], and resolves as
    soon as either recovers. Burn rate 1.0 means consuming the budget
    exactly as fast as allowed.

    Two feeders drive evaluators: {!Online} folds trace spans of the
    detailed server and cluster, {!Rollup} folds the request-granular
    fleet's completions. Each decides only when to {!advance} and whether
    to close the final partial window; the windows, burn rates,
    transitions and verdicts are computed here, once. *)

type kind =
  | Latency  (** Bad = completed over [threshold_ps], or shed. *)
  | Availability
      (** Bad = shed/failed only; completions are good at any latency.
          States "at least [1 - budget] of roots complete" — the natural
          objective under whole-server fault plans, where crash windows
          shed work without inflating tail latency. *)

type objective = {
  name : string;  (** Unique within a spec; labels alerts and metrics. *)
  fn : string option;  (** Entry-function filter; [None] matches all roots. *)
  kind : kind;  (** What consumes the budget; [Latency] is the default. *)
  percentile : float;  (** Reported quantile, in (0, 100). *)
  threshold_ps : int;  (** Latency bound a request must meet. *)
  window_ps : int;  (** Tumbling evaluation window, sim time. *)
  budget : float;  (** Allowed bad-request fraction, in (0, 1). *)
  fast_windows : int;  (** Short burn-rate horizon, in windows (>= 1). *)
  slow_windows : int;  (** Long horizon, in windows (>= fast). *)
  burn_threshold : float;  (** Fire when both horizons burn >= this. *)
}

val us : int -> float
(** Picoseconds to microseconds ([float_of_int ps /. 1e6]): the one
    conversion every report and export of this library prints with. *)

val default : objective
(** p99 < 25 us over 250 us windows, 1% budget, 1/4-window horizons,
    burn threshold 1.0 — the ["default"] preset. *)

val presets : (string * objective list) list
(** [none] (empty — the inert spelling), [default], [tight] (p99 < 5 us,
    0.5% budget) and [ci] (p99 < 8 us over 100 us windows, 2% budget). *)

val parse : string -> (objective list, string) result
(** Parse a spec: a preset name, a preset with overrides
    (["ci,threshold_us=5"]), or one-or-more inline objectives separated by
    [';'], each a comma-separated [key=value] list over keys [name], [fn],
    [kind] ([latency] or [availability]), [p], [threshold_us], [window_us],
    [budget], [fast], [slow], [burn]. Objective names must be unique. *)

val load : path:string -> (objective list, string) result
(** Parse a spec file: one objective per line ([key=value] lists), blank
    lines and [#] comments ignored. *)

val parse_arg : string -> (objective list, string) result
(** CLI entry point: if the argument names an existing file, {!load} it,
    otherwise {!parse} it as a preset/inline spec. *)

val applies : objective -> fn:string -> bool
(** Does the objective cover roots entering [fn]? *)

val to_string : objective -> string
(** Canonical [key=value] spelling; [parse]s back to the same objective. *)

val describe : objective -> string
(** Human summary, e.g. ["p99 < 25.0us (budget 1%, 250us windows, burn >= 1.0
    over 1/4 windows)"]. *)

(** {1 Evaluation} *)

type transition = {
  tr_at_ps : int;  (** The closing window's end. *)
  tr_objective : string;
  tr_firing : bool;  (** [true] = fire, [false] = resolve. *)
  tr_window : int;  (** Index of the window whose close transitioned. *)
  tr_burn_fast : float;
  tr_burn_slow : float;
}

type window = {
  w_index : int;
  w_total : int;  (** Requests decided in the window (completed + shed). *)
  w_bad : int;  (** Budget-consuming requests (includes shed ones). *)
  w_burn_fast : float;
  w_burn_slow : float;
  w_firing : bool;  (** Alert state after this window's evaluation. *)
  w_exemplar_ps : int;  (** Latency of [w_exemplar], or -1. *)
  w_exemplar : int;  (** The window's max-latency trace id, or -1. *)
}

type evaluator
(** One valid objective's windows and alert state. Window [i] covers
    [[i * window_ps, (i + 1) * window_ps)]; windows close in index order,
    empty ones included, and an empty window burns nothing. *)

val evaluator : objective -> evaluator
val objective : evaluator -> objective

val record :
  evaluator -> at_ps:int -> latency_ps:int -> shed:bool -> trace_id:int -> bool
(** Count one request decided at [at_ps] in its window, which may lie
    beyond the oldest open one; a request for an already-closed window
    counts in the oldest open one. A shed request is bad; a completed one
    is bad only if the objective is latency-kind and [latency_ps] exceeds
    its threshold, and enters the run's {!sketch}. A completion with
    [trace_id >= 0] competes for the window's exemplar (max latency, ties
    toward the smaller id); the result says whether it took the slot.
    Allocates nothing. *)

val advance : evaluator -> at_ps:int -> unit
(** Close every window that ends at or before [at_ps]. *)

val close_open : evaluator -> unit
(** Close the oldest open window now, even if it has not ended (the final
    partial window of a run). *)

val on_close : evaluator -> (window -> transition option -> unit) -> unit
(** Called after each window closes, with the fire/resolve transition
    that close caused, if any. *)

val open_requests : evaluator -> int
(** Requests counted in the oldest open window so far. *)

val sketch : evaluator -> Jord_telemetry.Sketch.t
(** Every completion's latency (and the run's exemplar trace id). *)

val quantile : evaluator -> int
(** {!sketch} at the objective's percentile. *)

val requests : evaluator -> int
val bad : evaluator -> int
val shed : evaluator -> int
val windows_closed : evaluator -> int
val fired : evaluator -> int
val resolved : evaluator -> int
val firing : evaluator -> bool

val windows : evaluator -> window list
(** Closed windows, oldest first. *)

val transitions : evaluator -> transition list
(** Chronological. *)

val merge_transitions : evaluator list -> transition list
(** Every evaluator's transitions, ordered by time, then objective name. *)

(** {1 Verdicts} *)

val budget_used : evaluator -> float
(** Percent of the error budget consumed over the whole run. *)

val verdict : evaluator -> string
(** ["FIRING"] while the alert fires, ["no-data"] with no requests, else
    ["met"] when the budget holds (and, for latency objectives, the
    {!quantile} meets the threshold), else ["VIOLATED"]. *)

val verdict_cells : evaluator -> string list
(** One verdict-table row: objective, fn, target, requests, bad, shed,
    measured, budget used, windows, fire/res, state. *)

val verdict_table : title:string -> ?extra:string list -> string list list -> string
(** Render rows of {!verdict_cells} (each followed by its [extra]
    columns). *)

val transition_line : transition -> string

val alert_log : transition list -> string
(** ["alerts:"] then one indented {!transition_line} each, or ["  none"]. *)
