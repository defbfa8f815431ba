(** Summary statistics for the benchmark's host-time samples.

    Percentiles use the nearest-rank rule, and a percentile is reported
    only when the sample supports it: at least {!min_beyond} samples must
    lie beyond the reported rank. A p99 therefore needs 1,000 samples. *)

val min_beyond : int
(** Samples that must lie beyond a reported percentile (10). *)

val rank : n:int -> p:float -> int
(** 1-based nearest rank of the [p]-th percentile among [n] sorted samples. *)

val supported : n:int -> p:float -> bool
(** Whether [n] samples support the [p]-th percentile ([0 < p < 100]). *)

val percentile : float array -> float -> float option
(** Nearest-rank [p]-th percentile, or [None] when the sample does not
    support it. The array is not modified. *)

val median : float array -> float
(** Conventional median (mean of the two middle values for even sizes).
    @raise Invalid_argument on an empty array. *)

val trimmed_mean : trim:float -> float array -> float
(** Mean of the samples left once the lowest and the highest
    [floor (trim * n)] are dropped ([0 <= trim < 0.5]).
    @raise Invalid_argument on an empty array. *)

(** Host-time windows of a simulation driven in fixed simulated slices.
    A window that executed no event is not a sample: it measures the
    loop around the simulator, not the simulator. *)
module Windows : sig
  type t

  val create : unit -> t

  val record : t -> host_s:float -> events:int -> unit
  (** One window: its host duration and the events it executed. *)

  val counted : t -> int
  (** Windows that executed at least one event. *)

  val skipped : t -> int
  (** Windows that executed none (excluded from every statistic). *)

  val samples_ms : t -> float array
  (** Host milliseconds of the counted windows, in recording order. *)
end
