(** Per-variant invocation lifecycle costs.

    Maps each step of the Figure-4 flow onto the underlying mechanisms:
    PrivLib PD/VMA operations and hardware translation for Jord and Jord_BT,
    memory management only for Jord_NI, pipes + shm for NightCore. Every
    lifecycle step {e overwrites} the {!cost} it is given with the latency
    it charged on the given core, split into isolation and data movement;
    callers keep one [cost] and fold it into the per-root accounting after
    each step, so no record is allocated per step. *)

type cost = { mutable isolation_ns : float; mutable comm_ns : float }
(** The two latency accumulators of one step (ns). All-float, so OCaml
    stores them unboxed and overwriting them allocates nothing. *)

val cost : unit -> cost
(** A zeroed pair. *)

val total : cost -> float
(** [isolation_ns +. comm_ns]. *)

type t

val create :
  variant:Variant.t ->
  hw:Jord_vm.Hw.t ->
  priv:Jord_privlib.Privlib.t ->
  nc:Jord_baseline.Nightcore.t ->
  t

val variant : t -> Variant.t
val hw : t -> Jord_vm.Hw.t
val priv : t -> Jord_privlib.Privlib.t
val nc : t -> Jord_baseline.Nightcore.t

val register_function : t -> core:int -> Model.fn -> unit
(** Load a function: create its code VMA (executor-owned, RX). *)

val code_va : t -> string -> int

val make_argbuf : t -> core:int -> bytes:int -> cost -> int
(** Allocate an ArgBuf in the calling context's PD and hand it to the
    runtime (pmove to PD 0) so it can travel with the request. Returns the
    base VA (0 for NightCore, which has no ArgBufs); the cost includes the
    payload write. *)

val reap_argbuf : t -> core:int -> pd:int -> va:int -> bytes:int -> cost -> unit
(** Parent-side consumption of a completed child's ArgBuf: take the
    permission back, read the response, deallocate. *)

val setup :
  t -> core:int -> fn:Model.fn -> argbuf:int -> arg_bytes:int -> cost -> int * int
(** Executor-side invocation setup: PD creation, private stack/heap VMA,
    code-permission grant, ArgBuf permission transfer, [ccall], first code
    and data touches, input read. Returns [(pd, state_va)] — 0 where the
    variant does not use them. *)

val teardown :
  t -> core:int -> fn:Model.fn -> pd:int -> state_va:int -> argbuf:int -> cost -> unit
(** Executor-side completion: output write, [creturn]-equivalent switch,
    ArgBuf reclaim to PD 0, code-permission revoke, stack/heap deallocation,
    PD destruction. *)

val abort :
  t -> core:int -> fn:Model.fn -> pd:int -> state_va:int -> argbuf:int -> cost -> unit
(** Rollback of a crashed invocation (Groundhog-style): {!teardown} minus
    the output write — PD destroyed, state VMA freed, code grant revoked,
    but the ArgBuf returns to PD 0 {e intact} so the request can be
    re-executed from its original input. A suspended (cexit'd) PD is
    re-entered ([center]) first, so both running and suspended
    invocations can be rolled back. *)

val pd_suspended : t -> pd:int -> bool
(** True when [pd] is a cexit'd (suspended) protection domain; false for
    PDs currently entered on a core and for variants without PDs. During a
    whole-server crash, each core's entered PD must be aborted before any
    suspended one ({!abort} on a suspended PD re-enters it, clobbering the
    core's current-PD register). *)

val suspend : t -> core:int -> pd:int -> cost -> unit
(** [cexit] (or a thread block for NightCore). *)

val resume : t -> core:int -> pd:int -> cost -> unit
(** [center] (or a thread wakeup). *)

val invoke_send : t -> core:int -> bytes:int -> cost -> unit
(** Caller-side cost of shipping a nested invocation to the orchestrator
    (queue write for Jord; pipe message for NightCore), excluding the
    ArgBuf, which {!make_argbuf} covers. *)

val external_input : t -> core:int -> bytes:int -> cost -> int
(** Orchestrator-side cost of materializing an external request's payload:
    ArgBuf allocation + payload write (Jord), shm transfer (NightCore).
    Returns the ArgBuf VA. *)

val release_argbuf : t -> core:int -> va:int -> bytes:int -> cost -> unit
(** Deallocate a root ArgBuf after the response has been sent. *)

val rewarm : t -> core:int -> fn:Model.fn -> cost -> unit
(** Re-establish a function's warm state after a whole-server crash wiped
    it (the cold path of the first post-boot invocation): re-fault the
    code image via a transient mapping. The registered code VMA itself
    survives, so the VMA population stays at its floor. *)

val touch_working_set :
  t -> core:int -> pd:int -> fn:Model.fn -> state_va:int -> cost -> unit
(** Per-compute-segment code/stack touches (I/D-VLB pressure). *)

val scratch : t -> core:int -> bytes:int -> cost -> unit
(** A function-initiated dynamic VMA: allocate, touch, free (the POSIX
    mmap/munmap of Listing 1). *)
