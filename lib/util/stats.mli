(** Summary statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in [\[0, 100\]], by linear interpolation
    between order statistics. The input array is not modified.
    @raise Invalid_argument on an empty array or out-of-range [p]. *)

val summarize : float array -> summary
(** All of the above in one pass (plus a sort for the percentiles). *)
