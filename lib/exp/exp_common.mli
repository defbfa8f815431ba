(** Shared machinery for the per-figure experiment drivers.

    Every driver reports to stdout as an ASCII table/series (via
    {!Jord_util.Render}) so the bench harness output is directly comparable
    with EXPERIMENTS.md. *)

type spec = {
  name : string;
  app : Jord_faas.Model.app;
  rates : float list;  (** Load sweep (MRPS) for the p99-vs-load figures. *)
  min_rate : float;  (** "Minimal load" used for SLO calibration. *)
  duration_us : float;  (** Arrival window per point. *)
  warmup : int;
}

val hipster : spec
val hotel : spec
val media : spec
val social : spec
val all : spec list

val scale : float -> spec -> spec
(** [scale f spec] multiplies the duration by [f] (and scales warmup),
    for quick runs. *)

val config_for : Jord_faas.Variant.t -> Jord_faas.Server.config

val set_jobs : int -> unit
(** Size of the shared domain pool that {!par_map}, {!sweep} and
    {!sweep_replicated} fan simulation points out on (default 1, i.e.
    sequential; also settable via the [JORD_JOBS] environment variable).
    Results are gathered in submission order, so figures and golden runs
    are bit-identical at any job count. *)

val jobs : unit -> int
(** Current shared pool size. *)

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map over independent simulation points on the
    shared pool (sequential [List.map] when {!jobs} is 1). *)

val metrics_sink : (name:string -> Jord_telemetry.Registry.t -> unit) option ref
(** When set, {!run_point} snapshots the simulated machine's full metric
    registry after each point and hands it to the sink under a
    "<spec>_<variant>_r<rate>[_s<seed>]" name (the bench harness's
    [--metrics-dir] turns these into one exposition file per point). *)

val run_point :
  ?seed_offset:int ->
  spec ->
  config:Jord_faas.Server.config ->
  rate_mrps:float ->
  Jord_faas.Server.t * Jord_metrics.Recorder.t
(** One simulation at one offered load; [seed_offset] derives an
    independent replication. *)

val slo_us : spec -> float
(** SLO = 10x the minimal-load mean service time on Jord_NI (paper §5).
    Memoized per spec name. *)

val sweep :
  spec ->
  config:Jord_faas.Server.config ->
  (float * Jord_metrics.Recorder.t) list
(** Run every rate of the spec. *)

val sweep_replicated :
  spec ->
  config:Jord_faas.Server.config ->
  seeds:int ->
  (float * float * float) list
(** [(rate, median p99 us, mean tput MRPS)] over [seeds] independent
    replications per rate. *)
