(** Memory footprint of one VMA-structure operation: the byte addresses it
    read, then the ones it wrote, each in access order, so the caller can
    charge them through {!Jord_arch.Memsys} (see {!Hw.charge_footprint}).

    A footprint is a reusable scratch. Every VMA-structure operation clears
    the footprint it is given and refills it, so nothing is allocated per
    operation; read it before the next operation that uses it. *)

type t

val create : unit -> t
val clear : t -> unit

val read : t -> int -> unit
(** Record a read of the address. *)

val write : t -> int -> unit
(** Record a write of the address. *)

val n_reads : t -> int
val n_writes : t -> int

val read_at : t -> int -> int
(** [read_at t i] is the [i]-th address read, [0 <= i < n_reads t]. *)

val write_at : t -> int -> int

val last_read : t -> int
(** The most recent address read, or [-1] when there is none. *)

val reads : t -> int list
val writes : t -> int list
(** The recorded addresses as lists (tests and inspection). *)
