module Engine = Jord_sim.Engine
module Time = Jord_sim.Time

type config = {
  slots : int;
  queue_cap : int;
  cold_start_ns : float;
  jitter_sigma : float;
  seed : int;
}

let default_config =
  { slots = 28; queue_cap = 112; cold_start_ns = 20_000.0; jitter_sigma = 0.25; seed = 11 }

type job = {
  entry : int;
  enq_ps : Time.t;  (* delivery time: queueing is measured from here *)
  on_done : ok:bool -> queue_ps:int -> cold_ps:int -> service_ps:int -> unit;
}

type t = {
  id : int;
  cfg : config;
  engine : Engine.t;
  service_ns : float array;
  prng : Jord_util.Prng.t;
  warm : bool array;
  queue : job Queue.t;
  mutable busy : int;
  mutable arrivals : int;
  mutable completed : int;
  mutable dropped : int;
  mutable cold_starts : int;
}

let create ~engine ~id ~service_ns cfg =
  if cfg.slots < 1 then invalid_arg "Fserver.create: slots must be >= 1";
  if cfg.queue_cap < 0 then invalid_arg "Fserver.create: queue_cap must be >= 0";
  if Array.length service_ns = 0 then invalid_arg "Fserver.create: no entries";
  {
    id;
    cfg;
    engine;
    service_ns;
    (* Per-member PRNG sub-stream, as the chaos layer derives per-server
       streams: jitter draws on one member never shift another's. *)
    prng = Jord_util.Prng.create ~seed:(cfg.seed + (0x9E3779B9 * (id + 1)));
    warm = Array.make (Array.length service_ns) false;
    queue = Queue.create ();
    busy = 0;
    arrivals = 0;
    completed = 0;
    dropped = 0;
    cold_starts = 0;
  }

let id t = t.id

let service_duration t ~entry ~cold =
  let sigma = t.cfg.jitter_sigma in
  let mult =
    if sigma <= 0.0 then 1.0
    else
      (* mu = -sigma^2/2 keeps the multiplier's mean at 1, so the fleet's
         aggregate throughput matches the calibrated means. *)
      Jord_util.Sample.lognormal t.prng ~mu:(-.(sigma *. sigma) /. 2.0) ~sigma
  in
  let ns =
    (if cold then t.cfg.cold_start_ns else 0.0) +. (t.service_ns.(entry) *. mult)
  in
  Time.of_ns ns

let rec start t job =
  t.busy <- t.busy + 1;
  let queue_ps = Time.( - ) (Engine.now t.engine) job.enq_ps in
  let cold = not t.warm.(job.entry) in
  if cold then begin
    t.cold_starts <- t.cold_starts + 1;
    t.warm.(job.entry) <- true
  end;
  let dur = service_duration t ~entry:job.entry ~cold in
  (* Phase split of [dur] for the span plane. [dur] keeps its single
     rounding (cold + jittered service as one of_ns), so untraced behavior
     is bit-for-bit unchanged; the split re-derives the cold share and by
     construction sums back to [dur] exactly. *)
  let cold_ps = if cold then Int.min dur (Time.of_ns t.cfg.cold_start_ns) else 0 in
  let service_ps = dur - cold_ps in
  Engine.schedule t.engine ~after:dur (fun _ ->
      t.busy <- t.busy - 1;
      t.completed <- t.completed + 1;
      job.on_done ~ok:true ~queue_ps ~cold_ps ~service_ps;
      if (not (Queue.is_empty t.queue)) && t.busy < t.cfg.slots then
        start t (Queue.pop t.queue))

let deliver t ~entry ~on_done =
  t.arrivals <- t.arrivals + 1;
  let job = { entry; enq_ps = Engine.now t.engine; on_done } in
  if t.busy < t.cfg.slots then start t job
  else if Queue.length t.queue < t.cfg.queue_cap then Queue.push job t.queue
  else begin
    t.dropped <- t.dropped + 1;
    on_done ~ok:false ~queue_ps:0 ~cold_ps:0 ~service_ps:0
  end

let power_on t = Array.fill t.warm 0 (Array.length t.warm) false
let arrivals t = t.arrivals
let completed t = t.completed
let dropped t = t.dropped
let cold_starts t = t.cold_starts
