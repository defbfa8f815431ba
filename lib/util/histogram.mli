(** Logarithmically bucketed histogram for latency samples.

    Latencies span nanoseconds to milliseconds, so buckets grow geometrically
    (HDR-histogram style: [sub_buckets] linear buckets per octave). Recording
    is O(1) and memory is independent of the sample count, which matters when
    the load sweeps record tens of millions of request latencies. *)

type t

val create : ?lowest:float -> ?highest:float -> ?sub_buckets:int -> unit -> t
(** [create ()] covers \[1 ns, 1 s\] by default with 32 sub-buckets per
    octave (worst-case quantization error ~3%). Values are clamped into
    range. *)

val record : t -> float -> unit
(** Record one sample. *)

val record_n : t -> float -> int -> unit
(** Record [n] identical samples. *)

val count : t -> int
val total : t -> float

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p], [p] in [\[0, 100\]]; 0 when empty. Never above the
    largest recorded sample. *)

val merge_into : dst:t -> src:t -> unit
(** Add all of [src]'s counts into [dst]. Configurations must match. *)

val cdf : t -> (float * float) list
(** [(value, cumulative fraction)] pairs for all non-empty buckets. *)

val clear : t -> unit
