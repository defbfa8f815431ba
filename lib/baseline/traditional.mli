(** Cost model of a *traditional* multi-address-space FaaS platform
    (paper §2.1) — the unenhanced world of containers/microVMs that the
    whole paper argues against.

    Constants follow the paper's background citations: orchestrator-mediated
    dispatch costs multiple IPC round trips (>=10 ms per invocation through
    e.g. Step Functions / Logic Apps); data travels through indirect
    channels (message queues / remote storage, tens of ms and up to 70% of
    execution time); and cold starts pay sandbox image pull + boot + runtime
    initialization (tens to hundreds of ms), with state-of-the-art
    mitigations still in the milliseconds. *)

type t = {
  orchestrator_ipc_ns : float;  (** One mediated dispatch (multiple IPCs). *)
  data_channel_base_ns : float;  (** Indirect data channel fixed cost. *)
  data_channel_ns_per_byte : float;
  cold_start_ns : float;  (** Sandbox provisioning from scratch. *)
  warm_start_ns : float;  (** With snapshot/caching mitigations applied. *)
}

val default : t

val invocation_overhead_ns : t -> arg_bytes:int -> float
(** Control + data overhead of one warm invocation (no sandbox start). *)
