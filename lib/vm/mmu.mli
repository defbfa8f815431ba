(** Per-core MMU front-end: I/D-VLBs, the ucid CSR and the P bit of the
    executing instruction stream (paper §4.3).

    The uatp/uatc pair is machine-global in our model (one Jord process per
    worker server) and lives in {!Va.config}; ucid is per core and selects
    the PD whose permissions apply. The P bit tracks whether the currently
    executing code lies in a privileged VMA; CSR accesses and privileged
    VMA accesses require it. *)

type t

val create : i_entries:int -> d_entries:int -> t

val i_vlb : t -> Vlb.t
val d_vlb : t -> Vlb.t

val ucid : t -> int
(** Current PD id (0 is the executor/root domain). *)

val set_ucid : t -> int -> unit
(** Raw update used by PrivLib internals (already privilege-checked). *)

val write_ucid : t -> int -> unit
(** CSR write path: requires the P bit.
    @raise Fault.Fault otherwise. *)

val p_bit : t -> bool
(** Is the core currently executing privileged code? *)

val enter_privileged : t -> at_gate:bool -> unit
(** Model the decoder's CFI check on the unprivileged->privileged transition:
    the first privileged instruction must be [uatg].
    @raise Fault.Fault with [Gate_violation] otherwise. *)

val exit_privileged : t -> unit
