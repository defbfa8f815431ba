module Prng = Jord_util.Prng

type t = {
  plan : Plan.t;
  prng : Prng.t;
  mutable draws : int;
}

(* Each injector derives its stream from the plan seed and a caller salt
   (e.g. the server index), so every server and the cluster transport get
   independent but reproducible fault schedules. *)
let create ?(salt = 0) plan =
  { plan; prng = Prng.create ~seed:(Plan.(plan.seed) lxor (salt * 0x9e3779b9)); draws = 0 }

(* Per-server-id sub-stream: seeded plan.seed xor sid, so each server's
   fault schedule is a function of (plan, sid) alone — independent of how
   the servers are interleaved across engine shards. *)
let for_sid plan ~sid = { plan; prng = Prng.create ~seed:(Plan.(plan.seed) lxor sid); draws = 0 }

let plan t = t.plan
let draws t = t.draws

(* Probability draws only consume PRNG state when the fault class is
   enabled: a plan with loss=0 produces the same crash schedule as one
   without a loss field at all. *)
let hit t prob =
  prob > 0.0
  &&
  (t.draws <- t.draws + 1;
   Prng.float t.prng 1.0 < prob)

let uniform_ns t max_us =
  if max_us <= 0.0 then 0.0
  else begin
    t.draws <- t.draws + 1;
    Prng.float t.prng (max_us *. 1000.0)
  end

let draw_crash t = hit t t.plan.Plan.crash
let restart_ns t = t.plan.Plan.restart_us *. 1000.0
let draw_server_crash t = hit t t.plan.Plan.server_crash
let server_down_ns t = t.plan.Plan.server_down_us *. 1000.0
let draw_warm_loss t = hit t t.plan.Plan.warm_loss
let draw_stall_ns t = if hit t t.plan.Plan.stall then t.plan.Plan.stall_us *. 1000.0 else 0.0

let draw_slow_factor t =
  if hit t t.plan.Plan.slow then t.plan.Plan.slow_factor else 1.0

type wire = {
  lost : bool;
  duplicated : bool;
  jitter_ns : float;
  dup_jitter_ns : float;
}

let draw_wire t =
  let lost = hit t t.plan.Plan.loss in
  let duplicated = hit t t.plan.Plan.dup in
  let jitter_ns = uniform_ns t t.plan.Plan.jitter_us in
  let dup_jitter_ns = if duplicated then uniform_ns t t.plan.Plan.jitter_us else 0.0 in
  { lost; duplicated; jitter_ns; dup_jitter_ns }

let max_jitter_ns t = t.plan.Plan.jitter_us *. 1000.0
