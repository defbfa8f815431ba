(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs Bechamel microbenchmarks of the core data structures
   (host-side wall-clock of this implementation), and emits the structured
   BENCH_*.json reports the CI perf-regression gate compares against
   bench/baseline.json.

   Usage:
     bench/main.exe                 run everything (full fidelity)
     bench/main.exe --quick         shorter simulations
     bench/main.exe table4 fig9 ... run selected experiments
     bench/main.exe micro           only the Bechamel microbenchmarks
     bench/main.exe --jobs=N        run sweep points on an N-domain pool
                                    (reports stay byte-identical to -j 1)
     bench/main.exe --json-out=D    run the structured suite (engine, vm,
                                    server, cluster) and write
                                    D/BENCH_<experiment>.json
     bench/main.exe --selftest-par  assert the pool is deterministic and
                                    measurably faster (CI bench smoke)
     bench/main.exe --metrics-dir=D dump each figure point's machine
                                    counters as D/<point>.prom

   Unknown experiment names list the valid ones and exit 2. Timing chatter
   goes to stderr so stdout is diffable across --jobs values. *)

let quick = ref false
let seeds = ref 1
let metrics_dir = ref None
let json_out = ref None
let jobs = ref 1
let selftest_par = ref false

let section title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" bar title bar

let experiments : (string * (unit -> unit)) list =
  [
    ( "table4",
      fun () ->
        section "Table 4: VMA and PD operation latencies";
        print_string (Jord_exp.Table4.report ~iters:(if !quick then 1500 else 4000) ()) );
    ( "fig9",
      fun () ->
        section "Figure 9: p99 latency vs load (NightCore / Jord / Jord_NI)";
        print_string (Jord_exp.Fig9.report ~quick:!quick ~seeds:!seeds ()) );
    ( "fig10",
      fun () ->
        section "Figure 10: CDF of function service time in Jord";
        print_string (Jord_exp.Fig10.report ~quick:!quick ()) );
    ( "fig11",
      fun () ->
        section "Figure 11: service-time breakdown of the selected functions";
        print_string (Jord_exp.Fig11.report ~quick:!quick ()) );
    ( "fig12",
      fun () ->
        section "Figure 12: sensitivity to I-VLB / D-VLB entries";
        print_string (Jord_exp.Fig12.report ~quick:!quick ()) );
    ( "fig13",
      fun () ->
        section "Figure 13: Jord vs Jord_BT (B-tree VMA table)";
        print_string (Jord_exp.Fig13.report ~quick:!quick ()) );
    ( "fig14",
      fun () ->
        section "Figure 14: scalability with system size";
        print_string (Jord_exp.Fig14.report ~quick:!quick ()) );
    ( "background",
      fun () ->
        section "Background (paper 2.1): the FaaS overhead ladder";
        print_string (Jord_exp.Background.report ()) );
    ( "motivation",
      fun () ->
        section "Motivation (paper 2.2): page-based VM vs Jord's PrivLib";
        print_string (Jord_exp.Motivation.report ~iters:(if !quick then 100 else 300) ()) );
    ( "claims",
      fun () ->
        section "Paper-claim checklist (programmatic verification)";
        print_string (Jord_exp.Claims.report ~quick:!quick ()) );
    ( "ablation",
      fun () ->
        section "Ablations (beyond the paper): dispatch policy, grouping, queues";
        print_string (Jord_exp.Ablations.report ~quick:!quick ()) );
  ]

(* --- Bechamel microbenchmarks: host-side cost of the core structures --- *)

let micro () =
  section "Bechamel microbenchmarks (host wall-clock of the implementation)";
  let open Bechamel in
  let open Toolkit in
  let cfg = Jord_vm.Va.default_config in
  let mk_vte index =
    let sc = Jord_vm.Size_class.of_size 4096 in
    let base = Jord_vm.Va.encode cfg sc ~index ~offset:0 in
    Jord_vm.Vte.create ~base ~bytes:4096 ~phys:(0x100000 + (index * 4096)) ()
  in
  (* Pre-populated structures shared by the lookup benchmarks. *)
  let plain = Jord_vm.Vma_table.create cfg in
  let btree = Jord_vm.Vma_btree.create () in
  let fp = Jord_vm.Footprint.create () in
  for i = 0 to 999 do
    Jord_vm.Vma_table.insert plain fp (mk_vte i);
    Jord_vm.Vma_btree.insert btree fp (mk_vte i)
  done;
  let probe = Jord_vm.Vte.base (mk_vte 500) + 64 in
  let vlb = Jord_vm.Vlb.create ~entries:16 in
  for i = 0 to 15 do
    Jord_vm.Vlb.fill vlb ~vte_addr:i (mk_vte i)
  done;
  let memsys =
    Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default)
  in
  let priv =
    let m = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
    let hw =
      Jord_vm.Hw.create ~memsys:m ~store:(Jord_vm.Vma_store.plain cfg) ~va_cfg:cfg ()
    in
    Jord_privlib.Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ())
  in
  let counter = ref 0 in
  (* Telemetry hot-path instruments: these bound the overhead an owned
     counter/histogram adds when updated from simulation code (pull
     collectors add literally nothing until snapshot). *)
  let reg = Jord_telemetry.Registry.create () in
  let tel_counter = Jord_telemetry.Registry.counter reg "bench_ctr_total" in
  let tel_hist = Jord_telemetry.Registry.histogram reg "bench_hist_ns" in
  let tests =
    [
      Test.make ~name:"telemetry counter inc"
        (Staged.stage (fun () -> Jord_telemetry.Registry.Counter.inc tel_counter));
      Test.make ~name:"telemetry histogram observe"
        (Staged.stage (fun () ->
             Jord_telemetry.Registry.Hist.observe tel_hist 1234.5));
      Test.make ~name:"plain-list lookup"
        (Staged.stage (fun () -> ignore (Jord_vm.Vma_table.lookup plain fp ~va:probe)));
      Test.make ~name:"b-tree lookup"
        (Staged.stage (fun () -> ignore (Jord_vm.Vma_btree.lookup btree fp ~va:probe)));
      Test.make ~name:"vlb lookup"
        (Staged.stage (fun () ->
             ignore (Jord_vm.Vlb.lookup vlb ~va:(Jord_vm.Vte.base (mk_vte 7) + 5))));
      Test.make ~name:"memsys read (hit)"
        (Staged.stage (fun () -> ignore (Jord_arch.Memsys.read memsys ~core:0 ~addr:0x4000)));
      Test.make ~name:"privlib mmap+munmap"
        (Staged.stage (fun () ->
             let va, _ =
               Jord_privlib.Privlib.mmap priv ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw ()
             in
             ignore (Jord_privlib.Privlib.munmap priv ~core:0 ~va)));
      Test.make ~name:"privlib cget+cput"
        (Staged.stage (fun () ->
             let pd, _ = Jord_privlib.Privlib.cget priv ~core:0 in
             ignore (Jord_privlib.Privlib.cput priv ~core:0 ~pd)));
      Test.make ~name:"event queue push+pop x16"
        (Staged.stage (fun () ->
             let q = Jord_sim.Event_queue.create () in
             incr counter;
             for i = 0 to 15 do
               ignore
                 (Jord_sim.Event_queue.push q ~time:((!counter + i) mod 97) i
                   : Jord_sim.Event_queue.handle)
             done;
             while Jord_sim.Event_queue.pop q <> None do
               ()
             done));
    ]
  in
  let benchmark test =
    let quota = Time.second (if !quick then 0.2 else 0.5) in
    Benchmark.all
      (Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) ())
      Instance.[ monotonic_clock ]
      test
  in
  let analyze results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark (Test.make_grouped ~name:"g" [ test ])) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-32s %10.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n%!" name)
        results)
    tests

(* Run one structured-suite experiment: print its table and, when
   --json-out is set, write its BENCH_<name>.json. *)
let run_suite name =
  section (Printf.sprintf "bench suite: %s" name);
  match Jord_exp.Benchmarks.run_one ~quick:!quick name with
  | Error msg ->
      prerr_endline msg;
      exit 2
  | Ok doc ->
      print_string (Jord_exp.Benchmarks.render doc);
      (match !json_out with
      | None -> ()
      | Some dir ->
          let path = Jord_util.Bench_json.write_dir ~dir doc in
          Printf.eprintf "wrote %s\n%!" path)

let prefixed_arg ~prefix a =
  let n = String.length prefix in
  if String.length a > n && String.sub a 0 n = prefix then
    Some (String.sub a n (String.length a - n))
  else None

let set_jobs_arg v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> jobs := n
  | Some _ | None ->
      prerr_endline "bench: --jobs must be an integer >= 1";
      exit 2

let () =
  (* Flags accept both --flag=V and --flag V; everything else is an
     experiment name. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--quick" | "-q") :: rest ->
        quick := true;
        parse acc rest
    | "--selftest-par" :: rest ->
        selftest_par := true;
        parse acc rest
    | "--seeds" :: v :: rest ->
        seeds := int_of_string v;
        parse acc rest
    | "--metrics-dir" :: v :: rest ->
        metrics_dir := Some v;
        parse acc rest
    | "--json-out" :: v :: rest ->
        json_out := Some v;
        parse acc rest
    | ("--jobs" | "-j") :: v :: rest ->
        set_jobs_arg v;
        parse acc rest
    | a :: rest -> (
        match prefixed_arg ~prefix:"--seeds=" a with
        | Some v ->
            seeds := int_of_string v;
            parse acc rest
        | None -> (
            match prefixed_arg ~prefix:"--metrics-dir=" a with
            | Some v ->
                metrics_dir := Some v;
                parse acc rest
            | None -> (
                match prefixed_arg ~prefix:"--json-out=" a with
                | Some v ->
                    json_out := Some v;
                    parse acc rest
                | None -> (
                    match prefixed_arg ~prefix:"--jobs=" a with
                    | Some v ->
                        set_jobs_arg v;
                        parse acc rest
                    | None -> parse (a :: acc) rest))))
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  Jord_exp.Exp_common.set_jobs !jobs;
  if !selftest_par then begin
    match Jord_exp.Benchmarks.par_selftest ~quick:!quick () with
    | Ok summary ->
        print_endline summary;
        exit 0
    | Error msg ->
        prerr_endline msg;
        exit 1
  end;
  (match !metrics_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Jord_exp.Exp_common.metrics_sink :=
        Some
          (fun ~name reg ->
            Jord_telemetry.Export.write_file
              ~path:(Filename.concat dir (name ^ ".prom"))
              (Jord_telemetry.Export.to_prometheus reg)));
  let suite = Jord_exp.Benchmarks.names in
  let known = List.map fst experiments @ [ "micro" ] @ suite in
  List.iter
    (fun a ->
      if not (List.mem a known) then begin
        Printf.eprintf "unknown experiment %S; valid experiments: %s\n" a
          (String.concat ", " known);
        exit 2
      end)
    args;
  let selected =
    if args <> [] then args
    else if !json_out <> None then
      (* --json-out with no names: just the structured suite, which is what
         the CI perf-regression job consumes. *)
      suite
    else known
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      if name = "micro" then micro ()
      else if Jord_exp.Benchmarks.is_known name then run_suite name
      else (List.assoc name experiments) ())
    selected;
  Printf.eprintf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
