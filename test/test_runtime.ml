(* Unit tests of the per-variant lifecycle costs in Runtime: the cost
   *structure* (what is charged as isolation vs data movement, and which
   variant pays what) rather than absolute numbers. *)

open Jord_faas
module Vm = Jord_vm

let make variant =
  let memsys = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let hw =
    Vm.Hw.create ~memsys ~store:(Vm.Vma_store.plain Vm.Va.default_config)
      ~va_cfg:Vm.Va.default_config ()
  in
  let priv = Jord_privlib.Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ()) in
  let rt = Runtime.create ~variant ~hw ~priv ~nc:Jord_baseline.Nightcore.default in
  let fn =
    {
      Model.name = "f";
      make_phases = (fun _ -> [ Model.compute 10.0 ]);
      state_bytes = 4096;
      code_bytes = 4096;
    }
  in
  Runtime.register_function rt ~core:0 fn;
  (rt, fn)

(* Run one lifecycle step into a fresh cost pair. *)
let step f =
  let c = Runtime.cost () in
  f c;
  c

let full_cycle rt fn =
  (* Orchestrator materializes an external ArgBuf, executor sets up, runs,
     tears down, orchestrator reclaims. *)
  let intake = Runtime.cost () and setup = Runtime.cost () in
  let va = Runtime.external_input rt ~core:0 ~bytes:512 intake in
  let pd, state_va = Runtime.setup rt ~core:1 ~fn ~argbuf:va ~arg_bytes:512 setup in
  let down = step (Runtime.teardown rt ~core:1 ~fn ~pd ~state_va ~argbuf:va) in
  let rel = step (Runtime.release_argbuf rt ~core:0 ~va ~bytes:512) in
  (intake, setup, down, rel)

let test_jord_cycle () =
  let rt, fn = make Variant.Jord in
  let intake, setup, down, rel = full_cycle rt fn in
  Alcotest.(check bool) "intake has data movement" true (intake.Runtime.comm_ns > 0.0);
  Alcotest.(check bool) "setup isolation dominated by privlib" true
    (setup.Runtime.isolation_ns > 20.0);
  Alcotest.(check bool) "teardown isolation" true (down.Runtime.isolation_ns > 20.0);
  Alcotest.(check bool) "release is isolation (munmap)" true (rel.Runtime.isolation_ns > 0.0);
  (* Repeat cycles stay in steady state: no leak, costs settle. *)
  for _ = 1 to 50 do
    let _ = full_cycle rt fn in
    ()
  done;
  Alcotest.(check int) "no live PDs" 0
    (Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds (Runtime.priv rt)))

let test_ni_skips_pd_work () =
  let rt, fn = make Variant.Jord_ni in
  let _, setup, down, _ = full_cycle rt fn in
  let rt_j, fn_j = make Variant.Jord in
  let _, setup_j, down_j, _ = full_cycle rt_j fn_j in
  Alcotest.(check bool) "NI setup cheaper" true
    (setup.Runtime.isolation_ns < setup_j.Runtime.isolation_ns /. 2.0);
  Alcotest.(check bool) "NI teardown cheaper" true
    (down.Runtime.isolation_ns < down_j.Runtime.isolation_ns /. 2.0);
  (* And NI suspends/resumes for free (no cexit/center). *)
  Alcotest.(check (float 1e-9)) "NI suspend free" 0.0
    (Runtime.total (step (Runtime.suspend rt ~core:1 ~pd:0)));
  Alcotest.(check bool) "Jord suspend costs" true
    (let c = Runtime.cost () in
     let argbuf = Runtime.external_input rt_j ~core:0 ~bytes:64 c in
     let pd, _ = Runtime.setup rt_j ~core:2 ~fn:fn_j ~argbuf ~arg_bytes:64 c in
     Runtime.total (step (Runtime.suspend rt_j ~core:2 ~pd)) > 0.0)

let test_nightcore_pays_pipes () =
  let rt, fn = make Variant.Nightcore in
  let intake, setup, down, _ = full_cycle rt fn in
  (* Everything is copies and syscalls: microsecond-ish per full cycle. *)
  let total =
    Runtime.total intake +. Runtime.total setup +. Runtime.total down
  in
  Alcotest.(check bool) (Printf.sprintf "NC cycle is heavy (%.0f ns)" total) true
    (total > 400.0);
  Alcotest.(check bool) "NC suspend is a context switch" true
    (Runtime.total (step (Runtime.suspend rt ~core:1 ~pd:0)) > 500.0)

let test_scratch_costs () =
  let rt, _ = make Variant.Jord in
  let c = step (Runtime.scratch rt ~core:3 ~bytes:4096) in
  Alcotest.(check bool) "scratch charges privlib" true (c.Runtime.isolation_ns > 10.0);
  let rt_nc, _ = make Variant.Nightcore in
  let c_nc = step (Runtime.scratch rt_nc ~core:3 ~bytes:4096) in
  Alcotest.(check bool) "NC scratch is a malloc" true
    (Runtime.total c_nc < Runtime.total c +. 100.0)

let test_invoke_send () =
  let rt, _ = make Variant.Jord in
  Alcotest.(check (float 1e-9)) "jord zero-copy send" 0.0
    (Runtime.total (step (Runtime.invoke_send rt ~core:0 ~bytes:4096)));
  let rt_nc, _ = make Variant.Nightcore in
  Alcotest.(check bool) "NC pays per byte" true
    (Runtime.total (step (Runtime.invoke_send rt_nc ~core:0 ~bytes:4096))
    > Runtime.total (step (Runtime.invoke_send rt_nc ~core:0 ~bytes:64)))

let test_cost_algebra () =
  let c = Runtime.cost () in
  Alcotest.(check (float 1e-9)) "fresh pair is zero" 0.0 (Runtime.total c);
  c.Runtime.isolation_ns <- 10.0;
  c.Runtime.comm_ns <- 20.0;
  Alcotest.(check (float 1e-9)) "total" 30.0 (Runtime.total c);
  (* A step overwrites both halves rather than adding to them. *)
  let rt, _ = make Variant.Jord in
  Runtime.invoke_send rt ~core:0 ~bytes:64 c;
  Alcotest.(check (float 1e-9)) "iso overwritten" 0.0 c.Runtime.isolation_ns;
  Alcotest.(check (float 1e-9)) "comm overwritten" 0.0 c.Runtime.comm_ns;
  let rt_nc, _ = make Variant.Nightcore in
  Runtime.suspend rt_nc ~core:0 ~pd:0 c;
  Alcotest.(check bool) "isolation only" true
    (c.Runtime.isolation_ns > 0.0 && c.Runtime.comm_ns = 0.0);
  Alcotest.(check (float 1e-9)) "total is the sum" c.Runtime.isolation_ns (Runtime.total c)

let suite =
  [
    Alcotest.test_case "jord full cycle" `Quick test_jord_cycle;
    Alcotest.test_case "NI skips PD work" `Quick test_ni_skips_pd_work;
    Alcotest.test_case "NightCore pays pipes" `Quick test_nightcore_pays_pipes;
    Alcotest.test_case "scratch costs" `Quick test_scratch_costs;
    Alcotest.test_case "invoke send" `Quick test_invoke_send;
    Alcotest.test_case "cost algebra" `Quick test_cost_algebra;
  ]
