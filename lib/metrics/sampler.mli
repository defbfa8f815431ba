(** Simulated-time gauge sampler.

    Rides on a {!Jord_sim.Engine}: every [interval_us] of {e simulated}
    time it evaluates every tracked gauge and appends the value to that
    series' ring buffer. Sampling stops by itself when the engine has no
    other pending events (the machine went quiescent), when the optional
    [until] horizon passes, or on {!stop} — so a sampler never keeps a
    simulation alive on its own. *)

type t

type series = {
  name : string;
  labels : Registry.labels;
  points : (float * float) array;  (** (simulated time in us, value), oldest first. *)
}

val create :
  ?capacity:int -> engine:Jord_sim.Engine.t -> interval_us:float -> unit -> t
(** [capacity] bounds each series' ring buffer (default 4096 points; older
    points are overwritten). [interval_us] must be positive. *)

val interval_us : t -> float

val track : t -> ?labels:Registry.labels -> string -> (unit -> float) -> unit
(** Add a gauge to the sampled set. Metric names follow the registry's
    conventions so exported points line up with snapshot families. *)

val start : ?until:Jord_sim.Time.t -> t -> unit
(** Schedule the periodic sampling from the engine's current time. *)

val stop : t -> unit

val samples_taken : t -> int
(** Sampling rounds performed so far. *)

val series : t -> series list
(** Tracked series in registration order. *)
