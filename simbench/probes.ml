(* Layer probes: each times one public function of a layer alone, on an
   input fixed here (its own seed, independent of the workload seed), so two
   commits time the identical sequence of calls. A probe repeats its call
   sequence [reps] times and reports the median host ns per call. *)

module Stats = Simbench_stats.Stats
module Memsys = Jord_arch.Memsys
module Hw = Jord_vm.Hw
module Privlib = Jord_privlib.Privlib

let probe_seed = 0x51b
let calls = 8192
let reps = 7

let ns_per_call f =
  f ();
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         f ();
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls))

(* A bare 32-core Table-2 machine with PrivLib bootstrapped on it. *)
let machine () =
  let memsys = Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let va_cfg = Jord_vm.Va.default_config in
  let hw = Hw.create ~memsys ~store:(Jord_vm.Vma_store.plain va_cfg) ~va_cfg () in
  (memsys, hw, Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ()))

(* Cores 0-7 touching 64-byte lines of a 256 KiB region: a mix of L1 hits,
   remote forwards and invalidations. *)
let core_addr_pairs () =
  let prng = Jord_util.Prng.create ~seed:probe_seed in
  Array.init calls (fun _ ->
      let core = Jord_util.Prng.int prng 8 in
      (core, 0x100000 + (64 * Jord_util.Prng.int prng 4096)))

let memsys_probe op =
  let memsys, _, _ = machine () in
  let pairs = core_addr_pairs () in
  ns_per_call (fun () ->
      Array.iter (fun (core, addr) -> ignore (op memsys ~core ~addr : float)) pairs)

(* Data reads from cores 0-7 into 64 mapped 4 KiB VMAs: VLB hits and misses
   with walks through the VMA table. *)
let hw_access_probe () =
  let _, hw, pl = machine () in
  let vmas =
    Array.init 64 (fun _ -> fst (Privlib.mmap pl ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw ()))
  in
  let prng = Jord_util.Prng.create ~seed:probe_seed in
  let accesses =
    Array.init calls (fun _ ->
        let core = Jord_util.Prng.int prng 8 in
        (core, vmas.(Jord_util.Prng.int prng 64) + (64 * Jord_util.Prng.int prng 64)))
  in
  ns_per_call (fun () ->
      Array.iter
        (fun (core, va) ->
          ignore
            (Hw.access hw ~core ~va ~access:Jord_vm.Perm.Read ~kind:`Data ~bytes:64 : float))
        accesses)

let mmap_munmap_probe () =
  let _, _, pl = machine () in
  let prng = Jord_util.Prng.create ~seed:probe_seed in
  let sizes = Array.init calls (fun _ -> 64 lsl Jord_util.Prng.int prng 8) in
  ns_per_call (fun () ->
      Array.iter
        (fun bytes ->
          let va, _ = Privlib.mmap pl ~core:0 ~bytes ~perm:Jord_vm.Perm.rw () in
          ignore (Privlib.munmap pl ~core:0 ~va : float))
        sizes)

let cget_cput_probe () =
  let _, _, pl = machine () in
  ns_per_call (fun () ->
      for _ = 1 to calls do
        let pd, _ = Privlib.cget pl ~core:0 in
        ignore (Privlib.cput pl ~core:0 ~pd : float)
      done)

let all () =
  [
    ("arch.probe_read_ns", memsys_probe Memsys.read);
    ("arch.probe_write_ns", memsys_probe Memsys.write);
    ("vm.probe_access_ns", hw_access_probe ());
    ("privlib.probe_mmap_munmap_ns", mmap_munmap_probe ());
    ("privlib.probe_cget_cput_ns", cget_cput_probe ());
  ]
