(* simbench: the host-side benchmark of the Jord simulator.

   One process runs one workload. With [--trace 0] it repeats the workload
   for [--seconds] seconds and prints the end-to-end metrics; with
   [--trace 1] it runs the layer probes, one untraced and one traced
   repetition (plus, for cluster-forward, a two-shard replay) and prints the
   per-layer metrics. Every number is taken from outside the program, by
   timing calls into the public entry points of Jord_faas, Jord_workloads
   and Jord_fleet. See simbench/README.md for the workload rationale. *)

module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster
module Fleet = Jord_fleet.Fleet
module Hw = Jord_vm.Hw
module Memsys = Jord_arch.Memsys
module Privlib = Jord_privlib.Privlib
module Time = Jord_sim.Time
module Stats = Simbench_stats.Stats

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- one repetition of a workload -------------------------------------- *)

type rep = {
  sim_s : float;  (** Host time of the simulate phase (windows + drain). *)
  completed : int;
  digest : string;  (** Simulated outputs; must repeat exactly for a seed. *)
  violations : string list;  (** Broken invariants and bypass assertions. *)
  layers : (string * float) list;  (** Per-layer metrics of this repetition. *)
}

(* Growable buffer of completion latencies (integer ps). *)
module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* Exact nearest-rank quantile; 0 when nothing completed. *)
  let quantiles t ps =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    List.map (fun p -> if t.n = 0 then 0 else s.(Stats.rank ~n:t.n ~p - 1)) ps
end

(* Per-layer counters of a set of detailed servers, read through their
   public accessors. Index order matches [counter_names]. *)
let counter_names =
  [|
    "events"; "completed"; "invocations"; "mem_accesses"; "l1_misses"; "invalidations";
    "dram_fills"; "vlb_hits"; "vlb_misses"; "walks"; "shootdowns"; "vma_ops"; "pd_ops";
    "dispatches"; "queue_full_retries"; "forwarded";
  |]

let counters ~events ~completed ~invocations servers =
  let sum f = Array.fold_left (fun a s -> a + f s) 0 servers in
  let mem f = sum (fun s -> f (Memsys.stats (Hw.memsys (Server.hw s)))) in
  let vlb pick = sum (fun s -> pick (Hw.vlb_totals (Server.hw s))) in
  let calls cat = sum (fun s -> Privlib.call_count (Server.privlib s) cat) in
  [|
    events;
    completed;
    invocations;
    mem (fun m -> m.Memsys.l1_hits + m.Memsys.l1_misses);
    mem (fun m -> m.Memsys.l1_misses);
    mem (fun m -> m.Memsys.invalidations);
    mem (fun m -> m.Memsys.dram_fills);
    vlb fst;
    vlb snd;
    sum (fun s -> Hw.walk_count (Server.hw s));
    sum (fun s -> Hw.shootdown_count (Server.hw s));
    calls Privlib.Vma_mgmt;
    calls Privlib.Pd_mgmt;
    sum Server.dispatch_count;
    sum Server.queue_full_retries;
    sum Server.forwarded_out;
  |]

let attrs_of_delta a b =
  Array.to_list (Array.mapi (fun i name -> (name, float_of_int (b.(i) - a.(i)))) counter_names)

(* --- detailed-server workloads (media-server, cluster-forward) ---------- *)

(* What the window loop needs from a Server or a Cluster. *)
type machine = {
  servers : Server.t array;
  on_complete : (Jord_faas.Request.root -> unit) -> unit;
  arrive : unit -> unit;  (** Start or schedule the seeded arrivals. *)
  run_until : Time.t -> unit;
  events : unit -> int;
  arrivals : unit -> int;
  in_flight : unit -> int;
  invariants : unit -> string list;
  shards : int;
}

type detailed = {
  arrivals_us : float;  (** Simulated span of the Poisson arrivals. *)
  window_us : float;  (** Fixed simulated window driven per host timing. *)
  build : seed:int -> machine;
}

(* Timed runs sample the host's speed every [calib_every] windows, outside
   the timed calls, and record each window scaled by its local factor once
   the rep has ended. *)
let calib_every = 10

let detailed_rep d ~seed ~windows ~spans ~host =
  let root = Spans.start spans "rep" in
  let sp = Spans.start spans ~parent:root "setup" in
  let m = d.build ~seed in
  Spans.stop spans sp [];
  let lat = Lat.create () in
  let completed = ref 0 and invocations = ref 0 in
  m.on_complete (fun r ->
      incr completed;
      invocations := !invocations + r.Jord_faas.Request.invocations;
      Lat.add lat (r.Jord_faas.Request.completed_at - r.Jord_faas.Request.arrival));
  let sp = Spans.start spans ~parent:root "arrivals" in
  m.arrive ();
  Spans.stop spans sp [];
  let snap () =
    counters ~events:(m.events ()) ~completed:!completed ~invocations:!invocations m.servers
  in
  let before = snap () in
  let gc0 = Gc.quick_stat () in
  let sim = Spans.start spans ~parent:root "simulate" in
  let horizon = Time.of_us (3.0 *. d.arrivals_us) in
  let stop_arrivals = Time.of_us d.arrivals_us in
  let window = Time.of_us d.window_us in
  let backlog_at_stop = ref 0 in
  let t = ref Time.zero in
  let sim_s = ref 0.0 in
  let n_windows = ref 0 and pending = ref [] in
  while !t < stop_arrivals || (m.in_flight () > 0 && !t < horizon) do
    let t' = min horizon (!t + window) in
    let ev0 = m.events () in
    let c0 = if spans = None then [||] else snap () in
    let w = Spans.start spans ~parent:sim "window" in
    let (), host_s = timed (fun () -> m.run_until t') in
    sim_s := !sim_s +. host_s;
    if spans <> None then Spans.stop spans w (attrs_of_delta c0 (snap ()));
    (match host with
    | None -> Stats.Windows.record windows ~host_s ~events:(m.events () - ev0)
    | Some h ->
        pending := (host_s, m.events () - ev0, Hostspeed.samples h) :: !pending;
        incr n_windows;
        if !n_windows mod calib_every = 0 then Hostspeed.sample h);
    if !t < stop_arrivals && t' >= stop_arrivals then backlog_at_stop := m.in_flight ();
    t := t'
  done;
  Spans.stop spans sim [];
  Option.iter
    (fun h ->
      let factor = Hostspeed.local h in
      List.iter
        (fun (host_s, events, before) ->
          Stats.Windows.record windows ~host_s:(host_s *. factor before) ~events)
        (List.rev !pending))
    host;
  let sp = Spans.start spans ~parent:root "drain" in
  let (), drain_s = timed (fun () -> m.run_until horizon) in
  Spans.stop spans sp [];
  let gc1 = Gc.quick_stat () in
  let after = snap () in
  let sp = Spans.start spans ~parent:root "report" in
  let (p50, p99), report_s =
    timed (fun () ->
        match Lat.quantiles lat [ 50.0; 99.0 ] with [ a; b ] -> (a, b) | _ -> assert false)
  in
  let invariant_violations = m.invariants () in
  let arrivals = m.arrivals () in
  Spans.stop spans sp [];
  Spans.stop spans root [];
  let delta = Array.mapi (fun i _ -> after.(i) - before.(i)) counter_names in
  let get name =
    let rec find i = if counter_names.(i) = name then delta.(i) else find (i + 1) in
    find 0
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 m.servers in
  let dropped = sum Server.dropped_requests + sum Server.timed_out_requests in
  let digest =
    Printf.sprintf
      "arrivals=%d completed=%d dropped=%d events=%d p50_ps=%d p99_ps=%d forwards=%d \
       invocations=%d dispatches=%d cold_starts=%d mem_accesses=%d"
      arrivals !completed dropped (get "events") p50 p99 (get "forwarded")
      (get "invocations") (get "dispatches") (sum Server.cold_starts) (get "mem_accesses")
  in
  let per_req name = float_of_int (get name) /. float_of_int (max 1 !completed) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let violations =
    invariant_violations
    @ (if !completed + dropped <> arrivals then
         [ Printf.sprintf "arrivals %d <> completed %d + dropped %d" arrivals !completed dropped ]
       else [])
    @ if m.in_flight () <> 0 then [ "requests still in flight after drain" ] else []
  in
  let events = get "events" in
  {
    sim_s = !sim_s +. drain_s;
    completed = !completed;
    digest;
    violations;
    layers =
      [
        ("sim.events", float_of_int events);
        ("sim.events_per_req", per_req "events");
        ("arch.accesses_per_req", per_req "mem_accesses");
        ("arch.l1_miss_ratio", ratio (get "l1_misses") (get "mem_accesses"));
        ("arch.invalidations_per_req", per_req "invalidations");
        ("arch.dram_fills_per_req", per_req "dram_fills");
        ("vm.vlb_hit_ratio", ratio (get "vlb_hits") (get "vlb_hits" + get "vlb_misses"));
        ("vm.walks_per_req", per_req "walks");
        ("vm.shootdowns_per_req", per_req "shootdowns");
        ("privlib.vma_ops_per_req", per_req "vma_ops");
        ("privlib.pd_ops_per_req", per_req "pd_ops");
        ("faas.completed", float_of_int !completed);
        ("faas.sim_p50_ns", float_of_int p50 /. 1000.0);
        ("faas.sim_p99_ns", float_of_int p99 /. 1000.0);
        ("faas.invocations_per_req", per_req "invocations");
        ("faas.dispatches_per_req", per_req "dispatches");
        ("faas.queue_full_retries_per_req", per_req "queue_full_retries");
        ("faas.forwarded_per_req", per_req "forwarded");
        ("faas.backlog_at_arrival_stop", float_of_int !backlog_at_stop);
        ("workloads.arrivals", float_of_int arrivals);
        ("par.shards", float_of_int m.shards);
        ("obsv.report_s", report_s);
        ( "gc.minor_words_per_event",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 events) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ];
  }

(* media-server: one detailed 32-core Jord server running Media under
   open-loop Poisson traffic at 2 MRPS, well below saturation. Arrivals are
   drawn live by Loadgen. *)
let media_server =
  let arrivals_us = 2000.0 in
  {
    arrivals_us;
    window_us = 2.0;
    build =
      (fun ~seed ->
        let s = Server.create { Server.default_config with Server.seed } Jord_workloads.Media.app in
        {
          servers = [| s |];
          on_complete = Server.on_root_complete s;
          arrive =
            (fun () ->
              ignore
                (Jord_workloads.Loadgen.start ~server:s ~rate_mrps:2.0
                   ~duration:(Time.of_us arrivals_us) ~seed:(seed + 1)
                  : Jord_workloads.Loadgen.t));
          run_until = (fun until -> Server.run ~until s);
          events = (fun () -> Jord_sim.Engine.processed (Server.engine s));
          arrivals = (fun () -> Server.arrivals s);
          in_flight = (fun () -> Server.in_flight s);
          invariants = (fun () -> Server.check_invariants s);
          shards = 1;
        });
  }

(* cluster-forward: four 6-core Media servers with one orchestrator each,
   forwarding after one full scan. The benchmark draws the Poisson arrivals
   itself and places them with submit_at, which works at any shard count.
   Timed runs use one engine: on a 2-core host a two-domain run's speed
   swings with contention on either core, far beyond any bound. The traced
   run replays the seed on two shards to measure the parallel core. *)
let cluster_forward ~shards =
  let arrivals_us = 2000.0 and rate_mrps = 2.7 in
  {
    arrivals_us;
    window_us = 2.0;
    build =
      (fun ~seed ->
        let config =
          {
            Server.default_config with
            Server.seed;
            machine = Jord_arch.Config.with_cores Jord_arch.Config.default 6;
            orchestrators = 1;
          }
        in
        let c =
          Cluster.create ~forward_after:1 ~shards ~servers:4 ~config Jord_workloads.Media.app
        in
        let servers = Cluster.servers c in
        let sum f () = Array.fold_left (fun a s -> a + f s) 0 servers in
        {
          servers;
          on_complete = Cluster.on_root_complete c;
          arrive =
            (fun () ->
              let prng = Jord_util.Prng.create ~seed:(seed + 1) in
              let gap () =
                Time.of_ns (Jord_util.Sample.exponential prng ~mean:(1000.0 /. rate_mrps))
              in
              let stop = Time.of_us arrivals_us in
              let t = ref (gap ()) in
              while !t <= stop do
                Cluster.submit_at c ~time:!t ();
                t := !t + gap ()
              done);
          run_until = (fun until -> Cluster.run ~until c);
          events = (fun () -> Cluster.events_processed c);
          arrivals = sum Server.arrivals;
          in_flight = sum Server.in_flight;
          invariants = (fun () -> Cluster.check_invariants c);
          shards = Cluster.shards c;
        });
  }

(* --- fleet-flash ----------------------------------------------------------- *)

(* 400 request-granular members behind the affinity balancer, the fast
   autoscaler and diurnal population traffic with a flash crowd, run
   sequentially. *)
let fleet_duration_us = 3000.0

let fleet_shape ~seed =
  {
    Jord_workloads.Traffic.users = 1_000_000;
    zipf_s = 1.1;
    rate_mrps = 100.0;
    diurnal_amp = 0.5;
    diurnal_period_us = fleet_duration_us;
    flash = [ { Jord_workloads.Traffic.at_us = 1500.0; dur_us = 400.0; boost = 3.0 } ];
    seed;
  }

let fleet_config ~seed =
  let autoscale =
    match Jord_fleet.Autoscaler.parse "fast,min=64" with
    | Ok a -> a
    | Error e -> failwith e
  in
  {
    Fleet.default_config with
    Fleet.servers = 400;
    autoscale = Some autoscale;
    member = { Jord_fleet.Fserver.default_config with Jord_fleet.Fserver.seed = seed + 2 };
    service_seed = seed + 1;
  }

let slo =
  match Jord_obsv.Slo.parse "default" with Ok o -> o | Error e -> failwith e

(* Fleet.run is one call, so its windows come from a host-clock sampler: a
   SIGALRM every [fleet_slice_s] records completed requests, and each slice
   that completed any is one window, scaled to host ms per 1,000 completed
   simulated requests. In timed runs every [fleet_calib_every]-th signal
   also samples the host's speed; the clock the slices are read from leaves
   that time out. *)
let fleet_slice_s = 0.0005
let fleet_calib_every = 20

let with_sampler ~sample ~tick f =
  let samples = ref [ sample () ] in
  (* A signal that arrives while [tick] runs is dropped. *)
  let busy = ref false in
  let record _ =
    if not !busy then begin
      busy := true;
      samples := sample () :: !samples;
      tick ();
      busy := false
    end
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle record) in
  let timer v =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
  in
  timer fleet_slice_s;
  let r =
    Fun.protect f ~finally:(fun () ->
        timer 0.0;
        Sys.set_signal Sys.sigalrm old)
  in
  (r, List.rev (sample () :: !samples))

let fleet_counter_names =
  [| "completed"; "routed"; "events"; "shed"; "cold_starts"; "boots"; "drains" |]

let fleet_counters f =
  [|
    Fleet.completed f; Fleet.routed f; Fleet.events_processed f; Fleet.shed f;
    Fleet.cold_starts f; Fleet.boots f; Fleet.drains f;
  |]

(* Metric families the detailed machine registers (memory system, VM,
   PrivLib). A fleet built without detailed machines exposes none. *)
let machine_families registry =
  List.length
    (List.filter
       (fun (name, _, _) ->
         List.exists
           (fun prefix -> String.starts_with ~prefix name)
           [ "jord_mem_"; "jord_vlb_"; "jord_vtw_"; "jord_vtd_"; "jord_faults"; "jord_privlib_" ])
       (Jord_telemetry.Registry.families registry))

let fleet_create ~seed = Fleet.create (fleet_config ~seed) ~app:Jord_workloads.Media.app

let fleet_rep ~seed ~windows ~spans ~host =
  let root = Spans.start spans "rep" in
  let sp = Spans.start spans ~parent:root "setup" in
  let f = fleet_create ~seed in
  Spans.stop spans sp [];
  let shape = fleet_shape ~seed in
  let gc0 = Gc.quick_stat () in
  let sim = Spans.start spans ~parent:root "simulate" in
  let clock () = now () -. Option.fold ~none:0.0 ~some:Hostspeed.spent host in
  let taken () = Option.fold ~none:0 ~some:Hostspeed.samples host in
  let ticks = ref 0 in
  let tick () =
    incr ticks;
    Option.iter (fun h -> if !ticks mod fleet_calib_every = 0 then Hostspeed.sample h) host
  in
  let c0 = clock () in
  let (), samples =
    with_sampler
      ~sample:(fun () -> (clock (), fleet_counters f, taken ()))
      ~tick
      (fun () -> Fleet.run ~slo f ~shape ~duration_us:fleet_duration_us)
  in
  let sim_s = clock () -. c0 in
  let gc1 = Gc.quick_stat () in
  let factor = Option.fold ~none:(fun _ -> 1.0) ~some:Hostspeed.local host in
  let rec slices = function
    | (t0, c0, before) :: ((t1, c1, _) :: _ as rest) ->
        let done_ = c1.(0) - c0.(0) in
        let per_1000 = if done_ > 0 then 1000.0 /. float_of_int done_ else 1.0 in
        Stats.Windows.record windows
          ~host_s:((t1 -. t0) *. per_1000 *. factor before)
          ~events:done_;
        (match spans with
        | Some _ ->
            let w = Spans.start spans ~parent:sim "window" in
            let delta i n = (n, float_of_int (c1.(i) - c0.(i))) in
            Spans.stop spans w
              (("host_s", t1 -. t0) :: Array.to_list (Array.mapi delta fleet_counter_names))
        | None -> ());
        slices rest
    | _ -> ()
  in
  slices samples;
  Spans.stop spans sim [];
  (* Fleet.run drains to its own horizon; the drain span marks that no
     request is left afterwards. *)
  let sp = Spans.start spans ~parent:root "drain" in
  Spans.stop spans sp [ ("in_flight", float_of_int (Fleet.outstanding_now f)) ];
  let sp = Spans.start spans ~parent:root "report" in
  let (rows, windows_closed, p50, p99), report_s =
    timed (fun () ->
        let r = Option.get (Fleet.rollup f) in
        ignore (Jord_obsv.Rollup.report_text r : string);
        let lat = Fleet.latency f in
        ( Jord_obsv.Rollup.rows r,
          List.fold_left (fun a (_, ws) -> a + List.length ws) 0 (Jord_obsv.Rollup.windows r),
          Jord_telemetry.Sketch.quantile lat 50.0,
          Jord_telemetry.Sketch.quantile lat 99.0 ))
  in
  Spans.stop spans sp [];
  Spans.stop spans root [];
  let verdicts =
    String.concat ";"
      (List.map
         (fun (r : Jord_obsv.Rollup.row) ->
           Printf.sprintf "%s:%d/%d/%d:%s" r.Jord_obsv.Rollup.r_objective.Jord_obsv.Slo.name
             r.Jord_obsv.Rollup.r_requests r.Jord_obsv.Rollup.r_bad r.Jord_obsv.Rollup.r_shed
             r.Jord_obsv.Rollup.r_verdict)
         rows)
  in
  let arrivals = Fleet.arrivals f and completed = Fleet.completed f in
  let events = Fleet.events_processed f in
  let digest =
    Printf.sprintf
      "arrivals=%d completed=%d shed=%d events=%d p50_ps=%d p99_ps=%d routed=%d hits=%d \
       cold_starts=%d boots=%d drains=%d verdicts=[%s]"
      arrivals completed (Fleet.shed f) events p50 p99 (Fleet.routed f) (Fleet.affinity_hits f)
      (Fleet.cold_starts f) (Fleet.boots f) (Fleet.drains f) verdicts
  in
  let violations =
    (if arrivals <> completed + Fleet.shed f then
       [ Printf.sprintf "arrivals %d <> completed %d + shed %d" arrivals completed (Fleet.shed f) ]
     else [])
    @ if Fleet.outstanding_now f <> 0 then [ "fleet requests still in flight" ] else []
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    sim_s;
    completed;
    digest;
    violations;
    layers =
      [
        ("sim.events", float_of_int events);
        ("sim.events_per_req", ratio events completed);
        ("faas.completed", float_of_int completed);
        ("faas.sim_p50_ns", float_of_int p50 /. 1000.0);
        ("faas.sim_p99_ns", float_of_int p99 /. 1000.0);
        ("workloads.arrivals", float_of_int arrivals);
        ("fleet.routed", float_of_int (Fleet.routed f));
        ("fleet.affinity_hit_ratio", ratio (Fleet.affinity_hits f) (Fleet.routed f));
        ("fleet.shed", float_of_int (Fleet.shed f));
        ("fleet.cold_starts", float_of_int (Fleet.cold_starts f));
        ("fleet.boots", float_of_int (Fleet.boots f));
        ("fleet.drains", float_of_int (Fleet.drains f));
        ("fleet.sim_p99_ps", float_of_int p99);
        ("obsv.rollup_windows", float_of_int windows_closed);
        ("obsv.report_s", report_s);
        ( "gc.minor_words_per_event",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 events) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("par.shards", 1.0);
        ("bypass.machine_families", float_of_int (machine_families (Fleet.registry f)));
      ];
  }

(* --- workloads, runs and reports ------------------------------------------ *)

type workload = {
  name : string;
  rep :
    seed:int -> windows:Stats.Windows.t -> spans:Spans.t option -> host:Hostspeed.t option -> rep;
  setup : seed:int -> unit;  (** Create the machine or fleet alone. *)
  shape : (seed:int -> Jord_workloads.Traffic.shape) option;
      (** Population traffic, when the workload uses it (timed alone). *)
}

let workloads =
  [
    {
      name = "media-server";
      rep = detailed_rep media_server;
      setup = (fun ~seed -> ignore (media_server.build ~seed : machine));
      shape = None;
    };
    {
      name = "cluster-forward";
      rep = detailed_rep (cluster_forward ~shards:1);
      setup = (fun ~seed -> ignore ((cluster_forward ~shards:1).build ~seed : machine));
      shape = None;
    };
    {
      name = "fleet-flash";
      rep = fleet_rep;
      setup = (fun ~seed -> ignore (fleet_create ~seed : Fleet.t));
      shape = Some fleet_shape;
    };
  ]

(* Every per-layer metric, in report order, with its unit. A layer a
   workload does not reach reports 0 (the bypass assertions check that). *)
let per_layer_units =
  [
    ("sim.events", "count"); ("sim.events_per_req", "count"); ("sim.events_per_s", "1/s");
    ("par.speedup_vs_seq", "ratio"); ("par.shards_identical", "bool");
    ("arch.accesses_per_req", "count"); ("arch.l1_miss_ratio", "ratio");
    ("arch.invalidations_per_req", "count"); ("arch.dram_fills_per_req", "count");
    ("arch.probe_read_ns", "ns"); ("arch.probe_write_ns", "ns");
    ("vm.vlb_hit_ratio", "ratio"); ("vm.walks_per_req", "count");
    ("vm.shootdowns_per_req", "count"); ("vm.probe_access_ns", "ns");
    ("privlib.vma_ops_per_req", "count"); ("privlib.pd_ops_per_req", "count");
    ("privlib.probe_mmap_munmap_ns", "ns"); ("privlib.probe_cget_cput_ns", "ns");
    ("faas.completed", "count"); ("faas.sim_p50_ns", "ns"); ("faas.sim_p99_ns", "ns");
    ("faas.invocations_per_req", "count"); ("faas.dispatches_per_req", "count");
    ("faas.queue_full_retries_per_req", "count"); ("faas.forwarded_per_req", "count");
    ("faas.backlog_at_arrival_stop", "count");
    ("workloads.arrivals", "count"); ("workloads.pregen_s", "s");
    ("workloads.pregen_words", "words");
    ("fleet.routed", "count"); ("fleet.affinity_hit_ratio", "ratio"); ("fleet.shed", "count");
    ("fleet.cold_starts", "count"); ("fleet.boots", "count"); ("fleet.drains", "count");
    ("fleet.sim_p99_ps", "ps");
    ("obsv.rollup_windows", "count"); ("obsv.report_s", "s");
    ("gc.minor_words_per_event", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.spans", "count"); ("trace.sim_req_per_s", "req/s"); ("trace.overhead_pct", "%");
  ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let sim_rate r = float_of_int r.completed /. r.sim_s

(* A repetition fails if it raises, breaks an invariant or produces a
   digest other than the first one of the process (same seed, same
   inputs). *)
let judge ~reference = function
  | Error e -> [ "raised " ^ Printexc.to_string e ]
  | Ok r ->
      r.violations
      @ (match reference with
        | Some d when d <> r.digest -> [ "digest differs: " ^ r.digest ]
        | _ -> [])

let attempt f = try Ok (f ()) with e -> Error e

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit_) ->
        if not (Float.is_finite value) then failwith ("non-finite metric " ^ name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let report_failures fails =
  List.iter
    (fun (i, msgs) -> List.iter (fun m -> Printf.printf "rep %d FAILED: %s\n" i m) msgs)
    fails

(* Set-up takes milliseconds and the host's speed drifts over seconds, so
   set-up is sampled throughout the run: [setups_per_rep] set-ups on a
   collected heap before each repetition, topped up to [setup_samples] at
   the end, each one between two samples of the host's speed. One untimed
   set-up first takes the fresh heap's growth out. *)
let setup_samples = 31
let setups_per_rep = 4

(* --trace 0: repeat the workload for [seconds] and report the end-to-end
   metrics with their sample counts. *)
let timed_run wl ~seed ~seconds =
  let setups = ref [] in
  let time_setups k =
    Gc.full_major ();
    let host = Hostspeed.create () in
    let raw =
      List.init k (fun _ ->
          Hostspeed.sample host;
          snd (timed (fun () -> wl.setup ~seed)))
    in
    Hostspeed.sample host;
    setups := List.map (fun s -> s *. Hostspeed.factor host) raw @ !setups
  in
  wl.setup ~seed;
  let run_rep () =
    let windows = Stats.Windows.create () in
    let host = Hostspeed.create () in
    let r = attempt (fun () -> wl.rep ~seed ~windows ~spans:None ~host:(Some host)) in
    (r, (windows, Hostspeed.factor host))
  in
  (* A warm-up repetition grows the heap and is checked like the others,
     but not timed. Peak memory is read after it: one simulation in a fresh
     process, as a user runs it. Later repetitions would make it depend on
     how many fit into [seconds]. *)
  let warmup = run_rep () in
  let rss = peak_rss_mb () in
  let t0 = now () in
  let results = ref [] in
  while !results = [] || now () -. t0 < seconds do
    time_setups setups_per_rep;
    results := run_rep () :: !results
  done;
  if List.length !setups < setup_samples then time_setups (setup_samples - List.length !setups);
  let setups = Array.of_list !setups in
  let results = List.rev !results in
  (* Host times of a timed rep are read at the reference speed: its
     throughput through the factor of all its host-speed samples, its
     windows through their local factors (applied by the rep). *)
  let scaled = List.filter_map (function Ok r, (w, k) -> Some (r, w, k) | Error _, _ -> None) results in
  let windows = List.map (fun (_, w, _) -> w) scaled in
  let results = List.map fst (warmup :: results) in
  let reference = List.find_map (function Ok r -> Some r.digest | Error _ -> None) results in
  let fails =
    List.filteri (fun _ (_, m) -> m <> [])
      (List.mapi (fun i r -> (i, judge ~reference r)) results)
  in
  let n = List.length results and nf = List.length fails in
  Printf.printf "simbench %s seed=%d reps=%d (simulated model, unvalidated against hardware)\n"
    wl.name seed n;
  Printf.printf "host times at the reference host speed (kernel %.1f ms), warm-up rep untimed\n"
    (Hostspeed.reference_s *. 1000.0);
  Option.iter
    (fun d -> Printf.printf "digest %s %s\n" (Digest.to_hex (Digest.string d)) d)
    reference;
  report_failures fails;
  if scaled = [] then begin
    print_result ~correct:false ~attempted:n ~failed:nf [];
    exit 1
  end;
  let rates = Array.of_list (List.map (fun (r, _, k) -> sim_rate r /. k) scaled) in
  (* A window percentile is taken per rep and the median over reps is
     reported, so a burst of host interference during one rep cannot set
     the run's tail. Reps are sized for at least 1,000 windows each. *)
  let counted = List.map Stats.Windows.counted windows in
  let pct p =
    let per_rep =
      List.filter_map (fun w -> Stats.percentile (Stats.Windows.samples_ms w) p) windows
    in
    if per_rep = [] then begin
      Printf.eprintf "simbench: no rep has enough windows for p%g\n" p;
      exit 2
    end;
    let note =
      Printf.sprintf "median over %d reps of %d-%d windows each, %d empty excluded"
        (List.length per_rep) (List.fold_left min max_int counted) (List.fold_left max 0 counted)
        (List.fold_left (fun a w -> a + Stats.Windows.skipped w) 0 windows)
    in
    Printf.printf "rep p%g ms:     %s\n" p
      (String.concat " " (List.map (Printf.sprintf "%.3f") per_rep));
    (Stats.median (Array.of_list per_rep), note)
  in
  let p50, p50_note = pct 50.0 and p99, p99_note = pct 99.0 in
  let metrics =
    [
      ( "sim_req_per_s", Stats.median rates, "req/s",
        Printf.sprintf "median of %d reps" (Array.length rates) );
      ("window_ms_p50", p50, "ms", p50_note);
      ("window_ms_p99", p99, "ms", p99_note);
      ("peak_rss_mb", rss, "MB", "VmHWM after the warm-up rep");
      ( "setup_s", Stats.median setups, "s",
        Printf.sprintf "median of %d set-ups" (Array.length setups) );
    ]
  in
  let per_rep f = String.concat " " (List.map f scaled) in
  Printf.printf "rep req/s raw:  %s\n" (per_rep (fun (r, _, _) -> Printf.sprintf "%.0f" (sim_rate r)));
  Printf.printf "host factor:    %s\n" (per_rep (fun (_, _, k) -> Printf.sprintf "%.3f" k));
  Printf.printf "rep req/s:      %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") rates)));
  List.iter
    (fun (name, v, u, note) -> Printf.printf "%-16s %14.6f %-6s (%s)\n" name v u note)
    metrics;
  Printf.printf "failed_runs      %d/%d runs\n" nf n;
  print_result ~correct:(nf = 0) ~attempted:n ~failed:nf
    (List.map (fun (name, v, u, _) -> (name, v, u)) metrics)

(* --trace 1: probes, an untraced and a traced repetition, the two-shard
   replay for cluster-forward, and the bypass assertions. *)
let traced_run wl ~seed ~out_dir =
  let probes = Probes.all () in
  let fresh_windows () = Stats.Windows.create () in
  let untraced = attempt (fun () -> wl.rep ~seed ~windows:(fresh_windows ()) ~spans:None ~host:None) in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let spans = Spans.create () in
  let traced = attempt (fun () -> wl.rep ~seed ~windows:(fresh_windows ()) ~spans:(Some spans) ~host:None) in
  let replay =
    if wl.name = "cluster-forward" then
      Some
        (attempt (fun () ->
             detailed_rep (cluster_forward ~shards:2) ~seed ~windows:(fresh_windows ()) ~spans:None
               ~host:None))
    else None
  in
  (* Fleet.run generates its arrivals inside the call, so the arrivals span
     times the same generation alone, on the same shape and seed. *)
  let pregen =
    Option.map
      (fun shape ->
        let shape = shape ~seed in
        let sp = Spans.start (Some spans) "arrivals" in
        let w0 = Gc.minor_words () in
        let n, s =
          timed (fun () ->
              Jord_workloads.Loadgen.population ~submit:(fun ~time:_ ~user:_ -> ()) ~shape
                ~duration_us:fleet_duration_us ())
        in
        let words = Gc.minor_words () -. w0 in
        Spans.stop (Some spans) sp [ ("arrivals", float_of_int n); ("minor_words", words) ];
        (s, words))
      wl.shape
  in
  let results = [ untraced; traced ] @ Option.to_list replay in
  let reference = match untraced with Ok r -> Some r.digest | Error _ -> None in
  let fails =
    List.filteri (fun _ (_, m) -> m <> [])
      (List.mapi (fun i r -> (i, judge ~reference r)) results)
  in
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" wl.name seed) in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  Spans.write spans ~path;
  Printf.printf "simbench %s seed=%d traced (simulated model, unvalidated against hardware)\n"
    wl.name seed;
  Printf.printf "spans: %d written to %s\n" (Spans.count spans) path;
  report_failures fails;
  match (untraced, traced) with
  | Ok u, Ok t ->
      let layer name = Option.value ~default:0.0 (List.assoc_opt name t.layers) in
      let bypass =
        match wl.name with
        | "media-server" ->
            [
              (layer "faas.forwarded_per_req" = 0.0, "media-server makes no forwards");
              (layer "par.shards" = 1.0, "media-server runs one shard");
            ]
        | "cluster-forward" ->
            [
              (layer "faas.forwarded_per_req" > 0.0, "cluster-forward forwards requests");
              ( layer "faas.backlog_at_arrival_stop" <= 0.05 *. layer "workloads.arrivals",
                "cluster-forward keeps up with the offered rate" );
              ( (match replay with
                | Some (Ok r2) -> List.assoc_opt "par.shards" r2.layers = Some 2.0
                | _ -> false),
                "cluster-forward replays on two shards" );
            ]
        | _ ->
            [
              ( layer "bypass.machine_families" = 0.0,
                "fleet-flash exposes no arch/vm/privlib instruments" );
              (layer "fleet.cold_starts" > 0.0, "fleet-flash boots servers cold");
            ]
      in
      List.iter
        (fun (ok, what) -> Printf.printf "bypass %-4s %s\n" (if ok then "ok" else "FAIL") what)
        bypass;
      let bypass_ok = List.for_all fst bypass in
      let speedup, identical =
        match replay with
        | Some (Ok r2) -> (u.sim_s /. r2.sim_s, if r2.digest = u.digest then 1.0 else 0.0)
        | Some (Error _) -> (0.0, 0.0)
        | None -> (1.0, 1.0)
      in
      let extra =
        [
          ("sim.events_per_s", layer "sim.events" /. u.sim_s);
          ("par.speedup_vs_seq", speedup);
          ("par.shards_identical", identical);
          ("gc.top_heap_mb", top_heap_mb);
          ("trace.spans", float_of_int (Spans.count spans));
          ("trace.sim_req_per_s", sim_rate t);
          ("trace.overhead_pct", 100.0 *. (sim_rate u -. sim_rate t) /. sim_rate u);
        ]
        @ (match pregen with
          | Some (s, w) -> [ ("workloads.pregen_s", s); ("workloads.pregen_words", w) ]
          | None -> [])
        @ probes
      in
      (* Counts and GC figures come from the untraced repetition; the traced
         one carries span bookkeeping. *)
      let value name =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value ~default:0.0 (List.assoc_opt name u.layers)
      in
      let metrics = List.map (fun (name, unit_) -> (name, value name, unit_)) per_layer_units in
      List.iter (fun (name, v, u) -> Printf.printf "%-34s %18.6f %s\n" name v u) metrics;
      let failed = List.length fails in
      print_result ~correct:(failed = 0 && bypass_ok) ~attempted:(List.length results) ~failed
        metrics
  | _ ->
      print_result ~correct:false ~attempted:(List.length results) ~failed:(List.length fails) [];
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "simbench/out" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME media-server | cluster-forward | fleet-flash");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure (--trace 0)");
      ("--trace", Arg.Set_int trace, "0|1 timed end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "simbench [options]";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("simbench: unknown workload " ^ !workload);
      exit 2
  | Some wl -> (
      match !trace with
      | 0 -> timed_run wl ~seed:!seed ~seconds:!seconds
      | 1 -> traced_run wl ~seed:!seed ~out_dir:!out_dir
      | n ->
          Printf.eprintf "simbench: --trace must be 0 or 1, not %d\n" n;
          exit 2)
