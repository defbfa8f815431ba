(** PrivLib — the trusted user-level privileged library (paper §3.2, §4.4,
    Table 1).

    Every API models the real entry sequence: a [uatg] call-gate entry, the
    mandatory security-policy checks, the data-structure work (free lists,
    VMA table, PD table — all charged through the memory system), the VTE
    writes with their hardware VLB shootdowns, and the gate exit. Each call
    returns the latency it cost on the calling core; PrivLib also keeps
    per-category time accumulators used by the paper's breakdown figures.

    Policy violations and protection violations raise {!Jord_vm.Fault.Fault};
    the latency of faulting calls is not modelled (a faulting function is
    killed). *)

type t

val create : hw:Jord_vm.Hw.t -> os:Os_facade.t -> t
(** Bootstraps PrivLib the way the OS would: creates the initial privileged
    VMAs (PrivLib code/stack/heap) in the VMA table. *)

val hw : t -> Jord_vm.Hw.t

val code_vma : t -> int option
(** PrivLib's own (privileged, global-RX) code VMA. *)

val pds : t -> Pd.t
val free_lists : t -> Free_list.t

(** {1 VMA management} *)

val mmap :
  t ->
  core:int ->
  bytes:int ->
  perm:Jord_vm.Perm.t ->
  ?privileged:bool ->
  ?global_perm:Jord_vm.Perm.t option ->
  unit ->
  int * float
(** Allocate a VMA of [bytes] into the calling PD with [perm]; returns
    [(base_va, ns)]. [privileged]/[global_perm] are only honoured for
    privileged callers (bootstrap and code loading). *)

val munmap : t -> core:int -> va:int -> float
(** Deallocate the VMA based at [va]. The caller must hold a permission on
    it (or be privileged). *)

val mprotect : t -> core:int -> ?pd:int -> va:int -> perm:Jord_vm.Perm.t -> unit -> float
(** Change a PD's permission on the VMA covering [va]. [pd] defaults to the
    calling PD; naming another PD is an executor-only operation (the trusted
    runtime revoking a finished function's code permission). *)

val pmove :
  t -> core:int -> ?src_pd:int -> va:int -> dst_pd:int -> perm:Jord_vm.Perm.t -> unit -> float
(** Atomically transfer a permission on the VMA from [src_pd] (default: the
    caller) to [dst_pd]. A foreign [src_pd] is executor-only (reclaiming an
    ArgBuf from a finished function's PD). *)

val pcopy : t -> core:int -> va:int -> dst_pd:int -> perm:Jord_vm.Perm.t -> float
(** Duplicate (a subset of) the caller's permission to [dst_pd]. *)

(** {1 PD management} *)

val cget : t -> core:int -> int * float
(** Allocate a fresh PD. Executor (PD 0) only. *)

val cput : t -> core:int -> pd:int -> float
(** Destroy a PD. Executor only; the PD must not be running and must hold
    no VMA permissions (or a recycled PD id would inherit them). *)

val outstanding_grants : t -> int -> int
(** VMA permissions currently held by a PD (0 for the root domain and for
    ids below 1, which are never counted). *)

val ccall : t -> core:int -> pd:int -> float
(** Switch the core into [pd] (user-level context switch; updates ucid). *)

val creturn : t -> core:int -> float
(** The implicit switch back to the executor when the function running in
    the current PD returns (the return half of [ccall]). *)

val cexit : t -> core:int -> float
(** Suspend the current PD (nested invocation wait) and switch back to the
    executor. *)

val center : t -> core:int -> pd:int -> float
(** Resume a suspended PD on this core. Executor only. *)

(** {1 Introspection} *)

type category = Vma_mgmt | Pd_mgmt

val time_in : t -> category -> float
(** Cumulative ns spent inside PrivLib per category — feeds the isolation
    overhead breakdown (Fig. 11) and the Jord_BT "+167% management time"
    comparison (Fig. 13). *)

val call_count : t -> category -> int

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the PrivLib metric families ([jord_privlib_calls_total{op=...}],
    [jord_privlib_ns_total{op=...}], the per-category aggregates and the
    outstanding-grants gauge) as pull collectors; [labels] are prepended to
    every instance. Zero hot-path cost. *)

val reset_accounting : t -> unit
