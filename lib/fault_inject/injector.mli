(** The seeded fault stream behind a {!Plan}.

    Every fault decision is a PRNG draw on a stream derived from the plan
    seed (xoshiro256**, independent of the workload stream), taken in
    simulated-event order — so a given (workload seed, plan) pair yields a
    bit-identical fault schedule on every run. Draws only consume PRNG
    state for fault classes the plan enables; disabled classes are free and
    do not perturb the schedule of the others. *)

type t

val create : ?salt:int -> Plan.t -> t
(** [salt] decorrelates streams that share one plan (per-server injectors,
    the cluster transport). *)

val for_sid : Plan.t -> sid:int -> t
(** The per-server-id sub-stream, seeded [plan.seed lxor sid]. Used for
    shard-local draws (e.g. per-source wire faults) whose schedule must
    depend only on the owning server's own event order, never on how
    servers are interleaved across engine shards. *)

val plan : t -> Plan.t

val draws : t -> int
(** PRNG draws taken so far (a cheap determinism fingerprint). *)

val draw_crash : t -> bool
(** One crash decision, taken at invocation start. *)

val restart_ns : t -> float
(** Downtime of a crashed executor (fixed by the plan, not drawn). *)

val draw_server_crash : t -> bool
(** One whole-server crash decision, taken at invocation start before the
    executor-crash draw. Consumes no PRNG state when the plan's
    [server_crash] is 0, so pre-existing plans keep their schedules. *)

val server_down_ns : t -> float
(** Downtime of a crashed server (fixed by the plan, not drawn). *)

val draw_warm_loss : t -> bool
(** One warm-state-loss decision, taken per whole-server crash. *)

val draw_stall_ns : t -> float
(** 0.0, or the plan's stall length if the stall draw hits. *)

val draw_slow_factor : t -> float
(** 1.0, or the plan's PrivLib slowdown factor if the slow draw hits. *)

type wire = {
  lost : bool;  (** The primary copy never arrives. *)
  duplicated : bool;  (** A second copy is delivered independently. *)
  jitter_ns : float;  (** Extra one-way latency of the primary copy. *)
  dup_jitter_ns : float;  (** Extra one-way latency of the duplicate. *)
}

val draw_wire : t -> wire
(** One wire-fault decision, taken per cross-server send attempt. *)

val max_jitter_ns : t -> float
(** Upper bound of any jitter draw — ack timeouts must exceed
    [2 * one_way + max_jitter_ns] so a timeout implies every copy was
    lost (which is what makes sender-side re-injection safe). *)
