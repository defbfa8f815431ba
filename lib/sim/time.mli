(** Simulated time.

    The whole stack measures time in picoseconds stored in an [int], which is
    exact for CPU cycles at 4 GHz (250 ps) and overflows only after ~104 days
    of simulated time — far beyond any experiment. Helper converters keep the
    unit explicit at API boundaries. *)

type t = int
(** Picoseconds. *)

val zero : t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val of_ns : float -> t
val to_ns : t -> float
val of_us : float -> t
val to_us : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit. *)
