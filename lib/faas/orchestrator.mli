(** Orchestrator threads: request intake, the JBSQ dispatch loop, ArgBuf
    reclaim, and the cross-server retry/forward path (paper §3.3).

    Each orchestrator owns an external queue (front-end arrivals), an
    internal queue (nested invocations, which take priority for deadlock
    freedom), and a group of executors it dispatches to by scanning their
    queue-length cache lines through the coherence model. The dispatch
    loop pre-builds its closures and scan scratch at construction time so
    steady-state dispatching allocates little.

    [create] also wires each managed executor's {!Executor.uplink}, which
    is the executors' only channel back to their orchestrator. *)

module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

type t = {
  oid : int;
  core : int;
  execs : Executor.t array;
  external_q : Request.t Queue.t;
  internal_q : Request.t Queue.t;
  mutable pending : Request.t option;
      (** Retry slot when every executor queue is full. *)
  mutable pending_retries : int;
  mutable busy : bool;
  rr_cursor : int ref;
  ext_line : int;
  int_line : int;
  notify_line : int;
  mutable reclaim : (int * int) list;
      (** Finished root ArgBufs awaiting release: [(va, bytes)]. *)
  mutable scan_hit_ns : float;  (** JBSQ scan scratch (valid during a scan). *)
  mutable scan_misses : float list;
  scan_count : int ref;
  mutable scan_lengths : int -> int;
  mutable scan_full : int -> bool;
  mutable dispatch_fn : Engine.t -> unit;  (** Pre-built dispatch-loop event. *)
  mutable wake_fn : Engine.t -> unit;
      (** Start the dispatch loop if idle (also the executors' uplink wake). *)
  mutable idle_fn : Engine.t -> unit;
}

val create : Executor.ctx -> oid:int -> core:int -> execs:Executor.t array -> t
(** Build the orchestrator and install its uplink on every executor in
    [execs]. *)

val purge_for_reboot : Executor.ctx -> t -> reboot:Time.t -> unit
(** Whole-server crash: classify the held retry slot and the internal
    queue through {!Executor.purge_request} (entry requests re-queue at
    [reboot], local children are discarded). The external queue and the
    reclaim list survive untouched. *)

val internal_arrival : Executor.ctx -> t -> Request.t -> Engine.t -> unit
(** A nested (or forwarded-in) request joins the internal queue; starts the
    dispatch loop if idle. *)

val enqueue_external : Executor.ctx -> t -> Request.t -> Engine.t -> unit
(** An external request joins the external queue; starts the dispatch loop
    if idle. Queue-cap shedding is the caller's ({!Server.submit}) job. *)

val jbsq_scan : Executor.ctx -> t -> int option * float * float
(** Scan every managed executor's queue length and pick a target:
    [(choice, scan_ns, instr_ns)]. Misses overlap (memory-level
    parallelism): the worst one at full latency, the rest partially.
    Exposed for the Fig. 14 worst-case dispatch probe. *)
