(** Collects completed external requests into latency and breakdown
    statistics.

    Latency measurement follows the paper (§5): it starts when an
    orchestrator receives the request and ends when an executor's completion
    notification reaches the orchestrator. The first [warmup] completions
    are discarded. *)

type t

type breakdown = {
  exec_ns : float;
  isolation_ns : float;
  dispatch_ns : float;
  comm_ns : float;
}

val create : ?warmup:int -> unit -> t
(** [warmup] defaults to 2000 requests. *)

val observe : t -> Jord_faas.Request.root -> unit
(** Feed to {!Jord_faas.Server.on_root_complete}. *)

val count : t -> int
(** Completions counted after warmup. *)

val throughput_mrps : t -> float
(** Completions per microsecond over the counted window. *)

val p99_us : t -> float
val p50_us : t -> float
val mean_us : t -> float
val percentile_us : t -> float -> float
val cdf : t -> (float * float) list
(** Service-time CDF: [(us, fraction)] points. *)

val mean_breakdown : t -> breakdown
(** Average per-request breakdown (ns). *)

val mean_invocations : t -> float

val by_entry : t -> (string * int * float * breakdown) list
(** Per entry function: (name, count, mean latency us, mean breakdown). *)
