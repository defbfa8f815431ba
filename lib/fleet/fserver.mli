(** One fleet member: a Jord server reduced to request granularity.

    The detailed single-server simulation prices a request through
    orchestrator dispatch, PD switches and VMA traffic; at fleet scale that
    fidelity is folded into a calibrated service-time model — per-entry
    mean compute from {!Jord_faas.Model.mean_service_ns} with lognormal
    jitter — behind the same shape of machinery: bounded execution slots,
    a bounded queue that sheds when full, and per-entry warm state whose
    absence costs a PD/VMA warm-up (the PR 8 cold-restart economics).
    Server state lives on the server's engine shard and is driven only by
    delivered messages, so a member never reads balancer state. *)

type config = {
  slots : int;  (** Concurrent executions (the paper's executor count). *)
  queue_cap : int;  (** Waiting requests beyond the slots; excess sheds. *)
  cold_start_ns : float;
      (** PD create + VMA warm-up charged when the entry is not warm. *)
  jitter_sigma : float;  (** Lognormal sigma of the service multiplier. *)
  seed : int;  (** Base seed; each member derives a sub-stream by id. *)
}

val default_config : config
(** 28 slots (fig. 14's per-socket executor count), 4x queue, 20 us cold
    start, sigma 0.25. *)

type t

val create :
  engine:Jord_sim.Engine.t -> id:int -> service_ns:float array -> config -> t
(** [service_ns] is the per-entry mean service time; entry indices are the
    fleet's. The member starts entirely cold. *)

val id : t -> int

val deliver :
  t ->
  entry:int ->
  on_done:(ok:bool -> queue_ps:int -> cold_ps:int -> service_ps:int -> unit) ->
  unit
(** Accept one request (runs on the member's engine). Starts service if a
    slot is free, queues it if the queue has room, otherwise sheds —
    [on_done ~ok:false] immediately with zero phases. On completion
    [on_done ~ok:true] runs at the completion's sim time carrying the
    member-side phase split: time spent queued, the cold-start share and
    the service share (the last two sum exactly to the service duration,
    whose single rounding is unchanged from the untraced path). *)

val power_on : t -> unit
(** Cold (re)boot: every entry loses its warm state, so the next request
    per entry pays [cold_start_ns] again. The fleet posts this when the
    autoscaler turns the member on. *)

val arrivals : t -> int
val completed : t -> int
val dropped : t -> int
val cold_starts : t -> int
