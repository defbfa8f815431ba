(** Machine-readable benchmark reports ([BENCH_<experiment>.json]) and the
    baseline comparator behind the CI perf-regression gate.

    Two metric kinds with different gating semantics:
    - [Time]: host wall-clock measurements. Noisy by nature, so baseline
      deviations are {e advisory} (reported, never failing).
    - [Count]: deterministic quantities — simulated-time results, event and
      completion counts, allocation words. Deviations beyond tolerance are
      {e hard failures}: the simulation's arithmetic moved.

    The JSON shape (schema_version 1):
    {v
    { "schema_version": 1,
      "experiment": "engine",
      "metrics": [
        { "name": "push_pop", "kind": "time", "unit": "ns/op",
          "value": 81.2, "median": 81.2, "iqr": 3.4,
          "repetitions": 5, "tolerance": 0.25 } ] }
    v}
    [value] is the median of the repetitions; [tolerance] is optional and
    overrides the comparator's default for that metric. *)

type kind = Time | Count

type metric = {
  name : string;
  kind : kind;
  unit_ : string;
  value : float;  (** Median of the repetitions. *)
  median : float;
  iqr : float;  (** Interquartile range (p75 - p25) of the repetitions. *)
  repetitions : int;
  tolerance : float option;
      (** Per-metric relative tolerance overriding the comparator default. *)
}

type doc = { experiment : string; metrics : metric list }

val metric :
  ?kind:kind ->
  ?tolerance:float ->
  name:string ->
  unit_:string ->
  float list ->
  metric
(** Summarize repetition samples (default [kind] is [Time]).
    @raise Invalid_argument on an empty sample list. *)

val count : ?tolerance:float -> name:string -> unit_:string -> float -> metric
(** A single-shot deterministic ([Count]) metric. *)

(* --- JSON round trip --- *)

val to_string : doc -> string
val of_json : Json.t -> (doc, string) result
val of_string : string -> (doc, string) result

val filename : string -> string
(** [filename experiment] is ["BENCH_<experiment>.json"]. *)

val write_dir : dir:string -> doc -> string
(** Write [doc] under [dir] (created if missing) as {!filename}; returns
    the path written. *)

val read_file : string -> (doc, string) result

(* --- baseline + comparator --- *)

type baseline = { default_tolerance : float; experiments : doc list }

val baseline_to_string : baseline -> string
val baseline_of_string : string -> (baseline, string) result
val read_baseline : string -> (baseline, string) result

type status =
  | Ok_within  (** Within tolerance. *)
  | Advisory  (** [Time] metric out of tolerance: reported, never fails. *)
  | Fail  (** [Count] metric out of tolerance. *)
  | Missing  (** Metric present in the baseline, absent from the run. *)

type verdict = {
  v_experiment : string;
  v_metric : string;
  v_kind : kind;
  v_baseline : float;
  v_current : float;
  v_deviation : float;  (** |current - baseline| / max |baseline| eps. *)
  v_allowed : float;
  v_status : status;
}

val compare_docs :
  ?default_tolerance:float -> baseline:doc -> current:doc -> unit -> verdict list
(** One verdict per baseline metric, in baseline order. Metrics only in
    [current] are ignored (new metrics are not regressions). The default
    tolerance is 0.2 (20% relative). *)

val has_failure : verdict list -> bool
(** True when any verdict is [Fail] or [Missing]. *)

val render_verdicts : verdict list -> string
(** Aligned human-readable table of the verdicts. *)
