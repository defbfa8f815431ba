module Request = Jord_faas.Request

type breakdown = {
  exec_ns : float;
  isolation_ns : float;
  dispatch_ns : float;
  comm_ns : float;
}

type acc = {
  mutable n : int;
  mutable lat_sum : float;
  mutable exec : float;
  mutable iso : float;
  mutable disp : float;
  mutable comm : float;
  mutable invocations : int;
}

let fresh_acc () =
  { n = 0; lat_sum = 0.0; exec = 0.0; iso = 0.0; disp = 0.0; comm = 0.0; invocations = 0 }

type t = {
  warmup : int;
  mutable seen : int;
  hist : Jord_util.Histogram.t; (* latency in ns *)
  total : acc;
  per_fn : (string, acc) Hashtbl.t;
  mutable first_at : Jord_sim.Time.t;
  mutable last_at : Jord_sim.Time.t;
}

let create ?(warmup = 2000) () =
  {
    warmup;
    seen = 0;
    hist = Jord_util.Histogram.create ~lowest:10.0 ~highest:1e10 ~sub_buckets:48 ();
    total = fresh_acc ();
    per_fn = Hashtbl.create 8;
    first_at = Jord_sim.Time.zero;
    last_at = Jord_sim.Time.zero;
  }

let add_to acc root lat_ns =
  acc.n <- acc.n + 1;
  acc.lat_sum <- acc.lat_sum +. lat_ns;
  acc.exec <- acc.exec +. root.Request.exec_ns;
  acc.iso <- acc.iso +. root.Request.isolation_ns;
  acc.disp <- acc.disp +. root.Request.dispatch_ns;
  acc.comm <- acc.comm +. root.Request.comm_ns;
  acc.invocations <- acc.invocations + root.Request.invocations

let observe t root =
  t.seen <- t.seen + 1;
  if t.seen > t.warmup then begin
    let lat_ns = Request.latency_ns root in
    if t.total.n = 0 then t.first_at <- root.Request.completed_at;
    t.last_at <- root.Request.completed_at;
    Jord_util.Histogram.record t.hist lat_ns;
    add_to t.total root lat_ns;
    let acc =
      match Hashtbl.find_opt t.per_fn root.Request.entry with
      | Some a -> a
      | None ->
          let a = fresh_acc () in
          Hashtbl.add t.per_fn root.Request.entry a;
          a
    in
    add_to acc root lat_ns
  end

let count t = t.total.n
let throughput_mrps t =
  (* Fewer than two counted completions span no time: the rate is
     undefined, and (n-1)/span would divide by zero (or go negative when
     everything fell inside warmup). Report 0 instead. *)
  if t.total.n < 2 then 0.0
  else
    let span_us = Jord_sim.Time.to_us Jord_sim.Time.(t.last_at - t.first_at) in
    if span_us <= 0.0 then 0.0 else float_of_int (t.total.n - 1) /. span_us

let percentile_us t p = Jord_util.Histogram.percentile t.hist p /. 1000.0
let p99_us t = percentile_us t 99.0
let p50_us t = percentile_us t 50.0
let mean_us t = if t.total.n = 0 then 0.0 else t.total.lat_sum /. float_of_int t.total.n /. 1000.0

let cdf t =
  List.map (fun (v, f) -> (v /. 1000.0, f)) (Jord_util.Histogram.cdf t.hist)

let breakdown_of acc =
  (* All-zero when nothing was counted (run shorter than warmup) rather
     than 0/0 = nan leaking into figure tables. *)
  if acc.n = 0 then { exec_ns = 0.0; isolation_ns = 0.0; dispatch_ns = 0.0; comm_ns = 0.0 }
  else
    let n = float_of_int acc.n in
    {
      exec_ns = acc.exec /. n;
      isolation_ns = acc.iso /. n;
      dispatch_ns = acc.disp /. n;
      comm_ns = acc.comm /. n;
    }

let mean_breakdown t = breakdown_of t.total

let mean_invocations t =
  if t.total.n = 0 then 0.0
  else float_of_int t.total.invocations /. float_of_int t.total.n

let by_entry t =
  Hashtbl.fold
    (fun name acc out ->
      let mean_lat = acc.lat_sum /. float_of_int (Int.max 1 acc.n) /. 1000.0 in
      (name, acc.n, mean_lat, breakdown_of acc) :: out)
    t.per_fn []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
