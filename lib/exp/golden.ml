(* Golden-run scenarios: a fixed set of seeded simulations whose outputs are
   checked bit-for-bit against test/golden.expected. The scenarios cover the
   paths a core refactor can disturb — the event engine's ordering, the
   executor/orchestrator interplay, cross-server forwarding, and the Poisson
   load generator — so any change to a measured number shows up as a diff.

   Every float is printed with %.17g: two runs agree only if they performed
   the exact same arithmetic in the exact same order. *)

module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster
module Variant = Jord_faas.Variant
module Request = Jord_faas.Request
module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

let f17 = Printf.sprintf "%.17g"

(* The deterministic app of test_server.ml: sync, async and nested chains,
   no sampled phases. *)
let tiny_app =
  let open Jord_faas.Model in
  let leaf name ns =
    { name; make_phases = (fun _ -> [ compute ns ]); state_bytes = 1024; code_bytes = 1024 }
  in
  let mid =
    {
      name = "mid";
      make_phases = (fun _ -> [ compute 150.0; invoke "leafB"; compute 50.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          [
            compute 200.0;
            invoke ~mode:Async "leafA";
            invoke "mid";
            wait;
            compute 100.0;
          ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  {
    app_name = "tiny";
    fns = [ entry; mid; leaf "leafA" 120.0; leaf "leafB" 80.0 ];
    entries = [ ("entry", 1.0) ];
  }

(* The fan-out app of test_cluster.ml: six async leaves per entry, the recipe
   for forwarding under tight queues. *)
let fanout_app =
  let open Jord_faas.Model in
  let leaf =
    {
      name = "leaf";
      make_phases = (fun _ -> [ compute 2000.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          List.init 6 (fun _ -> invoke ~mode:Async ~arg_bytes:256 "leaf") @ [ wait ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  { app_name = "fanout"; fns = [ entry; leaf ]; entries = [ ("entry", 1.0) ] }

let root_sums roots =
  List.fold_left
    (fun (lat, ex, iso, disp, comm) (r : Request.root) ->
      ( lat +. Request.latency_ns r,
        ex +. r.Request.exec_ns,
        iso +. r.Request.isolation_ns,
        disp +. r.Request.dispatch_ns,
        comm +. r.Request.comm_ns ))
    (0.0, 0.0, 0.0, 0.0, 0.0) roots

let single_server buf variant =
  let config =
    {
      Server.default_config with
      Server.variant;
      machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      orchestrators = 1;
    }
  in
  let server = Server.create config tiny_app in
  let roots = ref [] in
  Server.on_root_complete server (fun r -> roots := r :: !roots);
  let engine = Server.engine server in
  for i = 0 to 39 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 400.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  let lat, ex, iso, disp, comm = root_sums !roots in
  Buffer.add_string buf
    (Printf.sprintf
       "server/%s completed=%d live=%d dropped=%d dispatches=%d retries=%d events=%d\n"
       (Variant.name variant) (Server.completed_roots server)
       (Server.live_continuations server)
       (Server.dropped_requests server)
       (Server.dispatch_count server)
       (Server.queue_full_retries server)
       (Engine.processed engine));
  Buffer.add_string buf
    (Printf.sprintf "server/%s latency=%s exec=%s isolation=%s dispatch=%s comm=%s\n"
       (Variant.name variant) (f17 lat) (f17 ex) (f17 iso) (f17 disp) (f17 comm));
  Buffer.add_string buf
    (Printf.sprintf "server/%s dispatch_ns=%s\n" (Variant.name variant)
       (f17 (Server.dispatch_ns_total server)))

(* Arrivals go through [Cluster.submit_at] (round-robin resolved at
   schedule time, which for nondecreasing times is exactly the live order)
   so the very same scenario runs sequentially or sharded: with a fixed
   seed the two must be byte-identical, and CI diffs --shards 1/2/4
   golden outputs against each other to prove it. *)
let cluster_scenario buf ~label ~shards ~servers:n ~arrivals ~gap_ns =
  let config =
    {
      Server.default_config with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 4;
      orchestrators = 1;
      queue_capacity = 1;
    }
  in
  let cluster = Cluster.create ~forward_after:2 ~shards ~servers:n ~config fanout_app in
  let roots = ref [] in
  Cluster.on_root_complete cluster (fun r -> roots := r :: !roots);
  for i = 0 to arrivals - 1 do
    Cluster.submit_at cluster ~time:(Time.of_ns (float_of_int i *. gap_ns)) ()
  done;
  Cluster.run cluster;
  let lat, _, iso, disp, comm = root_sums !roots in
  Buffer.add_string buf
    (Printf.sprintf "%s completed=%d events=%d\n" label (List.length !roots)
       (Cluster.events_processed cluster));
  Array.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf "%s server=%d completed=%d out=%d in=%d\n" label i
           (Server.completed_roots s) (Server.forwarded_out s) (Server.received_in s)))
    (Cluster.servers cluster);
  Buffer.add_string buf
    (Printf.sprintf "%s latency=%s isolation=%s dispatch=%s comm=%s\n" label (f17 lat)
       (f17 iso) (f17 disp) (f17 comm))

let cluster buf ~shards = cluster_scenario buf ~label:"cluster" ~shards ~servers:3 ~arrivals:120 ~gap_ns:900.0

(* Six servers so a --shards 4 run actually partitions (two shards hold two
   servers each) and cross-shard forwards dominate the ring. *)
let cluster6 buf ~shards =
  cluster_scenario buf ~label:"cluster6" ~shards ~servers:6 ~arrivals:180 ~gap_ns:450.0

let loadgen buf (label, app, variant, rate) =
  let config = { Server.default_config with Server.variant } in
  let server, recorder =
    Jord_workloads.Loadgen.run ~warmup:100 ~app ~config ~rate_mrps:rate
      ~duration_us:600.0 ()
  in
  let open Jord_metrics.Recorder in
  Buffer.add_string buf
    (Printf.sprintf "loadgen/%s count=%d events=%d mean=%s p50=%s p99=%s tput=%s\n"
       label (count recorder)
       (Engine.processed (Server.engine server))
       (f17 (mean_us recorder)) (f17 (p50_us recorder)) (f17 (p99_us recorder))
       (f17 (throughput_mrps recorder)))

(* A small autoscaled affinity fleet under ci-style diurnal+flash traffic:
   the autoscaler both boots and drains members, and the SLO rollup closes
   windows. The run report is the fleet's byte-identity witness across
   shard counts, so the same scenario is emitted sequentially and on two
   engine shards. *)
let parsed = function Ok v -> v | Error m -> failwith m

(* A multi-line report, one "[label] line" per non-empty line. *)
let prefixed buf label text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%s %s\n" label l))

let fleet buf ~shards =
  let cfg =
    {
      Jord_fleet.Fleet.default_config with
      Jord_fleet.Fleet.servers = 64;
      policy = Jord_fleet.Lb.Affinity;
      autoscale = Some (parsed (Jord_fleet.Autoscaler.parse "fast,min=4,boot-us=50"));
      shards;
    }
  in
  let t = Jord_fleet.Fleet.create cfg ~app:Jord_workloads.Media.app in
  Jord_fleet.Fleet.run t
    ~slo:(parsed (Jord_obsv.Slo.parse_arg "ci"))
    ~shape:(parsed (Jord_workloads.Traffic.parse "ci,users=30000,rate=40,amp=0.9"))
    ~duration_us:800.0;
  let label = Printf.sprintf "fleet/s%d" shards in
  prefixed buf label (Jord_fleet.Fleet.summary t);
  Option.iter
    (fun r ->
      prefixed buf label (Jord_obsv.Rollup.report_text r);
      prefixed buf label (Jord_obsv.Rollup.report_csv r))
    (Jord_fleet.Fleet.rollup t);
  Buffer.add_string buf
    (Printf.sprintf "%s events=%d latency_mean_ps=%s\n" label
       (Jord_fleet.Fleet.events_processed t)
       (f17 (Jord_telemetry.Sketch.mean (Jord_fleet.Fleet.latency t))))

(* The online SLO plane over a small chaos cluster: a latency and an
   availability objective on short windows, so the burn-rate rule fires and
   resolves. Pins the verdict table, the per-window burn history and the
   alert log. *)
let slo buf ~shards =
  let config =
    {
      Server.default_config with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 4;
      orchestrators = 1;
      queue_capacity = 1;
      fault_plan = Some (parsed (Jord_fault_inject.Plan.parse "ci-smoke"));
      recovery =
        { Jord_faas.Recovery.default with deadline = Some (Time.of_ns 30_000.0) };
    }
  in
  let cluster = Cluster.create ~forward_after:2 ~shards ~servers:3 ~config fanout_app in
  let tracer = Jord_faas.Trace.create ~capacity:(1 lsl 16) () in
  Cluster.set_tracer cluster (Some tracer);
  let online =
    Jord_obsv.Online.create
      (parsed
         (Jord_obsv.Slo.parse
            "name=lat,p=99,threshold_us=20,window_us=10,budget=0.2,fast=1,slow=3;\
             name=avail,kind=availability,window_us=10,budget=0.02,fast=1,slow=2"))
  in
  Jord_obsv.Online.attach online tracer;
  (* Light load, a burst that misses both objectives, light load again. *)
  let at = ref 0.0 in
  for i = 0 to 119 do
    at := !at +. if i >= 40 && i < 80 then 400.0 else 3000.0;
    Cluster.submit_at cluster ~time:(Time.of_ns !at) ()
  done;
  Cluster.run cluster;
  Jord_obsv.Online.finish online ~now_ps:(Engine.now (Cluster.engine cluster));
  List.iter (prefixed buf "slo")
    [
      Jord_obsv.Online.report_text online;
      Jord_obsv.Online.burn_csv online;
      Jord_obsv.Online.alerts_json online;
    ]

(* Trace files end to end: save a seeded run's trace, load it back and print
   every report [jordctl trace] prints for it. The cluster is a chaos run
   pinned to one engine shard (a shared ring's interleaving is not a
   cross-shard invariant); the fleet trace file is byte-identical at any
   shard count, so that run follows [~shards]. *)
let trace_reports buf label ~save =
  let module Tracefile = Jord_obsv.Tracefile in
  let path = Filename.temp_file "jord_golden" ".jsonl" in
  let loaded =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        save ~path;
        Tracefile.load ~path)
  in
  let reports =
    match parsed loaded with
    | Tracefile.Server l ->
        let r = Tracefile.spans l in
        [
          Jord_obsv.Report.breakdown r;
          Jord_obsv.Report.slowest ~n:5 r;
          Jord_obsv.Report.critical_path r;
          Jord_obsv.Export.blame_csv r;
          Jord_obsv.Export.blame_json r;
        ]
    | Tracefile.Fleet l ->
        [
          Jord_obsv.Freport.breakdown l;
          Jord_obsv.Freport.slowest ~n:5 l;
          Jord_obsv.Freport.blame l;
          Jord_obsv.Freport.blame_csv l;
          Jord_obsv.Freport.blame_json l;
        ]
  in
  List.iter (prefixed buf label) reports

let trace_server buf ~shards:_ =
  let config =
    {
      Server.default_config with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 4;
      orchestrators = 1;
      queue_capacity = 1;
      fault_plan = Some (parsed (Jord_fault_inject.Plan.parse "ci-smoke"));
    }
  in
  let cluster = Cluster.create ~forward_after:2 ~shards:1 ~servers:3 ~config fanout_app in
  let tracer = Jord_faas.Trace.create ~capacity:(1 lsl 16) () in
  Cluster.set_tracer cluster (Some tracer);
  for i = 0 to 59 do
    Cluster.submit_at cluster ~time:(Time.of_ns (float_of_int i *. 700.0)) ()
  done;
  Cluster.run cluster;
  trace_reports buf "trace/server" ~save:(fun ~path ->
      Jord_obsv.Tracefile.save ~path tracer)

let trace_fleet buf ~shards =
  let cfg =
    {
      Jord_fleet.Fleet.default_config with
      Jord_fleet.Fleet.servers = 32;
      policy = Jord_fleet.Lb.Affinity;
      autoscale = Some (parsed (Jord_fleet.Autoscaler.parse "fast,min=4,boot-us=50"));
      shards;
    }
  in
  let t = Jord_fleet.Fleet.create cfg ~app:Jord_workloads.Media.app in
  let tracer = Jord_obsv.Ftrace.create ~reservoir:64 () in
  Jord_fleet.Fleet.run t ~tracer
    ~slo:(parsed (Jord_obsv.Slo.parse_arg "ci"))
    ~shape:(parsed (Jord_workloads.Traffic.parse "ci,users=30000,rate=20,amp=0.9"))
    ~duration_us:400.0;
  trace_reports buf "trace/fleet" ~save:(fun ~path ->
      Jord_obsv.Tracefile.save_fleet ~path tracer)

(* Every scenario is a self-contained seeded simulation writing its own
   buffer, so the list can run on a domain pool: parmap returns the pieces
   in this exact order and the concatenation is byte-identical to a
   sequential run at any job count (CI diffs -j 1/4/8 against the golden
   file to prove it). *)
let scenarios ~shards : (unit -> string) list =
  let in_buf f () =
    let buf = Buffer.create 1024 in
    f buf;
    Buffer.contents buf
  in
  List.map
    (fun v -> in_buf (fun buf -> single_server buf v))
    [ Variant.Jord; Variant.Jord_ni; Variant.Jord_bt; Variant.Nightcore ]
  @ [ in_buf (cluster ~shards); in_buf (cluster6 ~shards) ]
  @ List.map
      (fun case -> in_buf (fun buf -> loadgen buf case))
      [
        ("hipster-jord", Jord_workloads.Hipster.app, Variant.Jord, 1.0);
        ("hotel-ni", Jord_workloads.Hotel.app, Variant.Jord_ni, 0.8);
        ("hipster-nightcore", Jord_workloads.Hipster.app, Variant.Nightcore, 0.4);
      ]
  @ List.map (fun shards -> in_buf (fleet ~shards)) [ 1; 2 ]
  @ [ in_buf (slo ~shards); in_buf (trace_server ~shards); in_buf (trace_fleet ~shards) ]

let report ?(jobs = 1) ?(shards = 1) () =
  let scenarios = scenarios ~shards in
  let parts =
    if jobs <= 1 then List.map (fun f -> f ()) scenarios
    else
      Jord_par.Pool.with_pool ~jobs (fun pool ->
          Jord_par.Pool.parmap pool (fun f -> f ()) scenarios)
  in
  "# jord golden run (seeded, bit-exact)\n" ^ String.concat "" parts
