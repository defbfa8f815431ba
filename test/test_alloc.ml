(* Allocation gates for the per-access and per-request paths. Minor-heap
   words per call are deterministic for a given compiler, so a change that
   reintroduces an option, tuple, closure or boxed-float temporary on these
   paths fails here. Each probe first warms the machine, so the measured
   calls take the steady-state path (L1 hit, VLB hit, PD ids from the
   core-local shard). *)

module Memsys = Jord_arch.Memsys
module Hw = Jord_vm.Hw
module Pl = Jord_privlib.Privlib

let words_per_call ~iters f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let machine () =
  let memsys = Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let va_cfg = Jord_vm.Va.default_config in
  let hw = Hw.create ~memsys ~store:(Jord_vm.Vma_store.plain va_cfg) ~va_cfg () in
  (memsys, hw, Pl.create ~hw ~os:(Jord_privlib.Os_facade.create ()))

let check_at_most name ~limit words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words/call <= %.0f" name words limit)
    true (words <= limit)

let test_memsys_read_hit () =
  let memsys, _, _ = machine () in
  let w =
    words_per_call ~iters:1000 (fun () -> ignore (Memsys.read memsys ~core:0 ~addr:0x4000))
  in
  check_at_most "L1-hit Memsys.read" ~limit:2.0 w

(* Every call reads a line no core has touched: an L1 miss that creates the
   line's directory entry and fills from DRAM. The directory's doublings
   are amortised over the run; the boxed float result is the rest. *)
let test_memsys_read_first_touch () =
  let memsys, _, _ = machine () in
  let next = ref 0 in
  let w =
    words_per_call ~iters:20_000 (fun () ->
        incr next;
        ignore (Memsys.read memsys ~core:0 ~addr:(0x1000_0000 + (!next * 64))))
  in
  check_at_most "first-touch Memsys.read" ~limit:4.0 w

let test_hw_access_vlb_hit () =
  let _, hw, pl = machine () in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw () in
  let w =
    words_per_call ~iters:1000 (fun () ->
        ignore (Hw.access hw ~core:0 ~va ~access:Jord_vm.Perm.Read ~kind:`Data ~bytes:64))
  in
  check_at_most "VLB-hit Hw.access" ~limit:4.0 w

(* The D-VLB is flushed before every access, so each one walks the VMA
   table, registers with the VTD and refills the VLB. *)
let test_hw_access_vlb_miss () =
  let _, hw, pl = machine () in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw () in
  let dvlb = Jord_vm.Mmu.d_vlb (Hw.mmu hw ~core:0) in
  let w =
    words_per_call ~iters:1000 (fun () ->
        Jord_vm.Vlb.invalidate_all dvlb;
        ignore (Hw.access hw ~core:0 ~va ~access:Jord_vm.Perm.Read ~kind:`Data ~bytes:64))
  in
  check_at_most "VLB-miss Hw.access" ~limit:8.0 w

let test_cget_cput () =
  let _, _, pl = machine () in
  let w =
    words_per_call ~iters:1000 (fun () ->
        let pd, _ = Pl.cget pl ~core:0 in
        ignore (Pl.cput pl ~core:0 ~pd))
  in
  check_at_most "cget+cput" ~limit:70.0 w

let test_prng_float () =
  let p = Jord_util.Prng.create ~seed:3 in
  let w = words_per_call ~iters:1000 (fun () -> ignore (Jord_util.Prng.float p 1.0)) in
  check_at_most "Prng.float (boxed result only)" ~limit:3.0 w

(* A flat shape (no diurnal swing, a boost-1 flash window that still runs
   the window loop) accepts every thinning candidate, so one draw is one
   candidate: three boxed PRNG float results (gap, acceptance, alias) and
   the boxed argument of the cross-module [Time.of_us] call, 2 words each.
   Every rejected candidate of a thinned shape adds its two PRNG floats. *)
let test_traffic_draw () =
  let module Traffic = Jord_workloads.Traffic in
  let shape =
    {
      (List.assoc "ci" Traffic.presets) with
      Traffic.diurnal_amp = 0.0;
      flash = [ { Traffic.at_us = 0.0; dur_us = 1e12; boost = 1.0 } ];
    }
  in
  let s = Traffic.make shape ~duration_us:1e9 in
  let w = words_per_call ~iters:1000 (fun () -> ignore (Traffic.next_user s)) in
  check_at_most "accepted Traffic draw" ~limit:8.0 w

(* One untraced fleet completion landing in the rollup's open window: the
   evaluator counts it in flat per-window counters and the sketch, with
   no closure, option or tuple on the way. *)
let test_rollup_observe () =
  let module Rollup = Jord_obsv.Rollup in
  let r = Rollup.create [ Jord_obsv.Slo.default ] in
  let w =
    words_per_call ~iters:1000 (fun () ->
        Rollup.observe r ~trace_id:(-1) ~at_ps:1_000_000 ~fn:"f"
          ~latency_ps:30_000_000 ~shed:false)
  in
  check_at_most "untraced Rollup.observe" ~limit:0.0 w

let suite =
  [
    Alcotest.test_case "memsys read L1 hit" `Quick test_memsys_read_hit;
    Alcotest.test_case "memsys read first touch" `Quick test_memsys_read_first_touch;
    Alcotest.test_case "hw access VLB hit" `Quick test_hw_access_vlb_hit;
    Alcotest.test_case "hw access VLB miss" `Quick test_hw_access_vlb_miss;
    Alcotest.test_case "cget+cput" `Quick test_cget_cput;
    Alcotest.test_case "prng float" `Quick test_prng_float;
    Alcotest.test_case "traffic draw" `Quick test_traffic_draw;
    Alcotest.test_case "rollup observe" `Quick test_rollup_observe;
  ]
