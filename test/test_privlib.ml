open Jord_vm
module Pl = Jord_privlib.Privlib
module Pd = Jord_privlib.Pd

let make () =
  let topo = Jord_arch.Topology.create Jord_arch.Config.default in
  let memsys = Jord_arch.Memsys.create topo in
  let store = Vma_store.plain Va.default_config in
  let hw = Hw.create ~memsys ~store ~va_cfg:Va.default_config () in
  let os = Jord_privlib.Os_facade.create () in
  (Pl.create ~hw ~os, hw)

let expect_bad_handle f =
  match f () with
  | exception Fault.Fault (Fault.Bad_handle _) -> ()
  | _ -> Alcotest.fail "expected a Bad_handle policy fault"

let test_mmap_munmap () =
  let pl, hw = make () in
  let va, ns = Pl.mmap pl ~core:0 ~bytes:1000 ~perm:Perm.rw () in
  Alcotest.(check bool) "latency positive" true (ns > 0.0);
  Alcotest.(check bool) "jord VA" true (Va.is_jord Va.default_config va);
  (* The mapping is live and readable by the caller. *)
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  let ns2 = Pl.munmap pl ~core:0 ~va in
  Alcotest.(check bool) "munmap positive" true (ns2 > 0.0);
  match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "VMA must be gone after munmap"

let test_munmap_faults () =
  let pl, _ = make () in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:256 ~perm:Perm.rw () in
  ignore (Pl.munmap pl ~core:0 ~va);
  (* Double unmap: the VMA no longer exists. *)
  (match Pl.munmap pl ~core:0 ~va with
  | exception Fault.Fault (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected fault on double munmap")

let test_va_recycling () =
  let pl, _ = make () in
  let va1, _ = Pl.mmap pl ~core:0 ~bytes:256 ~perm:Perm.rw () in
  ignore (Pl.munmap pl ~core:0 ~va:va1);
  let va2, _ = Pl.mmap pl ~core:0 ~bytes:256 ~perm:Perm.rw () in
  Alcotest.(check int) "freed chunk recycled (LIFO shard)" va1 va2

let test_mprotect () =
  let pl, hw = make () in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:4096 ~perm:Perm.rw () in
  ignore (Pl.mprotect pl ~core:0 ~va ~perm:Perm.r ());
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data with
  | exception Fault.Fault (Fault.Permission _) -> ()
  | _ -> Alcotest.fail "write must fault after mprotect(r)");
  ignore (Pl.munmap pl ~core:0 ~va)

let test_pd_lifecycle () =
  let pl, _ = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  Alcotest.(check bool) "allocated" true (Pd.is_live (Pl.pds pl) pd);
  ignore (Pl.ccall pl ~core:0 ~pd);
  Alcotest.(check bool) "running" true (Pd.status (Pl.pds pl) pd = Pd.Running 0);
  (* Destroying a running PD is rejected. *)
  expect_bad_handle (fun () -> Pl.cput pl ~core:0 ~pd);
  ignore (Pl.cexit pl ~core:0);
  Alcotest.(check bool) "suspended" true (Pd.status (Pl.pds pl) pd = Pd.Suspended);
  ignore (Pl.center pl ~core:0 ~pd);
  ignore (Pl.creturn pl ~core:0);
  Alcotest.(check bool) "idle after return" true (Pd.status (Pl.pds pl) pd = Pd.Idle);
  ignore (Pl.cput pl ~core:0 ~pd);
  Alcotest.(check bool) "destroyed" false (Pd.is_live (Pl.pds pl) pd)

let test_pd_policy_faults () =
  let pl, hw = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  (* ccall into an idle PD twice from two cores: second must fail. *)
  ignore (Pl.ccall pl ~core:0 ~pd);
  expect_bad_handle (fun () -> Pl.ccall pl ~core:1 ~pd);
  (* center on a running PD is illegal. *)
  expect_bad_handle (fun () -> Pl.center pl ~core:1 ~pd);
  (* Functions (non-zero ucid) cannot cget. *)
  (match Pl.cget pl ~core:0 with
  | exception Fault.Fault (Fault.Bad_handle _) -> ()
  | _ -> Alcotest.fail "cget from inside a PD must fail");
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.cput pl ~core:0 ~pd);
  (* cexit outside any PD. *)
  expect_bad_handle (fun () -> Pl.cexit pl ~core:0);
  ignore hw

let test_pmove_transfers () =
  let pl, hw = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () in
  ignore (Pl.pmove pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.rw ());
  (* PD 0 lost the permission... *)
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Permission _) -> ()
  | _ -> Alcotest.fail "source PD must lose the permission");
  (* ...and the target PD gained it. *)
  ignore (Pl.ccall pl ~core:0 ~pd);
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data);
  ignore (Pl.creturn pl ~core:0);
  (* The PD still holds the VMA: destroying it now is rejected. *)
  expect_bad_handle (fun () -> Pl.cput pl ~core:0 ~pd);
  ignore (Pl.munmap pl ~core:0 ~va);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_pcopy_keeps_source () =
  let pl, hw = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () in
  ignore (Pl.pcopy pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.r);
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data);
  ignore (Pl.ccall pl ~core:0 ~pd);
  ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
  (* The copy granted r only. *)
  (match Hw.translate hw ~core:0 ~va ~access:Perm.Write ~kind:`Data with
  | exception Fault.Fault (Fault.Permission _) -> ()
  | _ -> Alcotest.fail "pcopy must not grant beyond the requested rights");
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.munmap pl ~core:0 ~va);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_no_rights_escalation () =
  let pl, _ = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  let va, _ = Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () in
  ignore (Pl.pmove pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.rw ());
  (* The function in [pd] holds rw and tries to grant itself x. *)
  ignore (Pl.ccall pl ~core:0 ~pd);
  expect_bad_handle (fun () ->
      Pl.pcopy pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.rwx);
  (* A function cannot act on a foreign PD's permissions either. *)
  expect_bad_handle (fun () ->
      Pl.pmove pl ~core:0 ~src_pd:0 ~va ~dst_pd:pd ~perm:Perm.rw ());
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.munmap pl ~core:0 ~va);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_attacker_cannot_touch_unowned () =
  let pl, hw = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  (* A secret VMA stays with PD 0. *)
  let secret, _ = Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () in
  ignore (Pl.ccall pl ~core:0 ~pd);
  (* The function forges the secret's address: load and store both fault. *)
  (match Hw.translate hw ~core:0 ~va:secret ~access:Perm.Read ~kind:`Data with
  | exception Fault.Fault (Fault.Permission _) -> ()
  | _ -> Alcotest.fail "forged read must fault");
  (* It cannot munmap or mprotect it either. *)
  expect_bad_handle (fun () -> Pl.munmap pl ~core:0 ~va:secret);
  expect_bad_handle (fun () -> Pl.mprotect pl ~core:0 ~va:secret ~perm:Perm.rw ());
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_special_mappings_executor_only () =
  let pl, _ = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  ignore (Pl.ccall pl ~core:0 ~pd);
  expect_bad_handle (fun () ->
      Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw ~privileged:true ());
  expect_bad_handle (fun () ->
      Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw ~global_perm:(Some Perm.rw) ());
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_fault_clears_p_bit () =
  (* Regression: a PrivLib call that faults on a policy check must not leave
     the core privileged, or the attacker inherits the P bit. *)
  let pl, hw = make () in
  let pd, _ = Pl.cget pl ~core:0 in
  ignore (Pl.ccall pl ~core:0 ~pd);
  expect_bad_handle (fun () -> Pl.cget pl ~core:0);
  Alcotest.(check bool) "P bit cleared after faulting call" false
    (Jord_vm.Mmu.p_bit (Hw.mmu hw ~core:0));
  (* And privileged operations still fault afterwards. *)
  (match Jord_vm.Mmu.write_ucid (Hw.mmu hw ~core:0) 0 with
  | exception Fault.Fault (Fault.Privileged_access _) -> ()
  | _ -> Alcotest.fail "CSR write must still be protected");
  ignore (Pl.creturn pl ~core:0);
  ignore (Pl.cput pl ~core:0 ~pd)

let test_gate_entry_fault_clears_p_bit () =
  (* Regression: the gate entry itself fetches PrivLib's code. When that
     translation faults, the P bit set by the entry must still be cleared,
     and the fault is counted once, by the translation. *)
  let pl, hw = make () in
  let code =
    match Pl.code_vma pl with Some va -> va | None -> Alcotest.fail "no PrivLib code VMA"
  in
  ignore (Vma_store.remove (Hw.store hw) ~va:code : Vte.t option);
  Vlb.invalidate_all (Mmu.i_vlb (Hw.mmu hw ~core:0));
  let faults = Hw.fault_count hw in
  (match Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () with
  | exception Fault.Fault (Fault.Unmapped _) -> ()
  | _ -> Alcotest.fail "expected the gate's code fetch to fault");
  Alcotest.(check bool) "P bit cleared after faulting gate entry" false
    (Mmu.p_bit (Hw.mmu hw ~core:0));
  Alcotest.(check int) "fault counted once" (faults + 1) (Hw.fault_count hw)

let test_accounting () =
  let pl, _ = make () in
  Pl.reset_accounting pl;
  let va, _ = Pl.mmap pl ~core:0 ~bytes:512 ~perm:Perm.rw () in
  ignore (Pl.munmap pl ~core:0 ~va);
  let pd, _ = Pl.cget pl ~core:0 in
  ignore (Pl.cput pl ~core:0 ~pd);
  Alcotest.(check int) "vma calls" 2 (Pl.call_count pl Pl.Vma_mgmt);
  Alcotest.(check int) "pd calls" 2 (Pl.call_count pl Pl.Pd_mgmt);
  Alcotest.(check bool) "vma time" true (Pl.time_in pl Pl.Vma_mgmt > 0.0);
  Alcotest.(check bool) "pd time" true (Pl.time_in pl Pl.Pd_mgmt > 0.0)

let test_refill_uses_uat_config () =
  let topo = Jord_arch.Topology.create Jord_arch.Config.default in
  let memsys = Jord_arch.Memsys.create topo in
  let store = Vma_store.plain Va.default_config in
  let hw = Hw.create ~memsys ~store ~va_cfg:Va.default_config () in
  let os = Jord_privlib.Os_facade.create () in
  let pl = Pl.create ~hw ~os in
  let before = Jord_privlib.Os_facade.uat_config_calls os in
  (* Allocate enough chunks of one class to force shared-list refills. *)
  let vas = List.init 100 (fun _ -> fst (Pl.mmap pl ~core:0 ~bytes:2048 ~perm:Perm.rw ())) in
  Alcotest.(check bool) "refills happened" true
    (Jord_privlib.Os_facade.uat_config_calls os > before);
  (* Steady state afterwards: alloc/free cycles cause no further refills. *)
  List.iter (fun va -> ignore (Pl.munmap pl ~core:0 ~va)) vas;
  let mid = Jord_privlib.Os_facade.uat_config_calls os in
  for _ = 1 to 200 do
    let va, _ = Pl.mmap pl ~core:0 ~bytes:2048 ~perm:Perm.rw () in
    ignore (Pl.munmap pl ~core:0 ~va)
  done;
  Alcotest.(check int) "no refill in steady state" mid
    (Jord_privlib.Os_facade.uat_config_calls os)

let expect_fault msg f =
  match f () with
  | exception Fault.Fault (Fault.Bad_handle m) -> Alcotest.(check string) "fault" msg m
  | _ -> Alcotest.failf "expected the fault %S" msg

(* PD ids outside [1, max_pds) and ids never allocated are rejected by the
   id-indexed tables with the same faults as before. *)
let test_pd_invalid_ids () =
  let pl, hw = make () in
  let pds = Pd.create ~max_pds:16 () and memsys = Hw.memsys hw in
  List.iter
    (fun id ->
      expect_fault "invalid PD id" (fun () -> Pd.status pds id);
      expect_fault "invalid PD id" (fun () -> Pd.free pds ~memsys ~core:0 id);
      Alcotest.(check bool) "not live" false (Pd.is_live pds id))
    [ 0; -1; 16; max_int ];
  expect_fault "PD not allocated" (fun () -> Pd.status pds 5);
  let id = Pd.alloc pds ~memsys ~core:0 in
  Alcotest.(check int) "one live" 1 (Pd.live_count pds);
  ignore (Pd.free pds ~memsys ~core:0 id);
  expect_fault "PD not allocated" (fun () -> Pd.free pds ~memsys ~core:0 id);
  Alcotest.(check int) "none live" 0 (Pd.live_count pds);
  Alcotest.(check int) "root holds no counted grants" 0 (Pl.outstanding_grants pl 0);
  Alcotest.(check int) "unknown PD holds none" 0 (Pl.outstanding_grants pl 100_000)

let test_free_list_double_free () =
  let _, hw = make () in
  let memsys = Hw.memsys hw in
  let fl =
    Jord_privlib.Free_list.create ~os:(Jord_privlib.Os_facade.create ())
      ~va_cfg:Va.default_config ()
  in
  let sc = Size_class.of_size 256 in
  let c = Jord_privlib.Free_list.alloc fl ~memsys ~core:0 sc in
  let index = c.Jord_privlib.Free_list.index and phys = c.Jord_privlib.Free_list.phys in
  ignore (Jord_privlib.Free_list.free fl ~memsys ~core:0 sc ~index ~phys);
  let double = "double free of VMA chunk" in
  expect_fault double (fun () -> Jord_privlib.Free_list.free fl ~memsys ~core:0 sc ~index ~phys);
  expect_fault double (fun () ->
      Jord_privlib.Free_list.free fl ~memsys ~core:0 sc ~index:(-1) ~phys);
  expect_fault double (fun () ->
      Jord_privlib.Free_list.free fl ~memsys ~core:0 sc ~index:1_000_000 ~phys);
  Alcotest.(check int) "none live" 0 (Jord_privlib.Free_list.live_chunks fl)

let suite =
  [
    Alcotest.test_case "mmap/munmap" `Quick test_mmap_munmap;
    Alcotest.test_case "munmap faults" `Quick test_munmap_faults;
    Alcotest.test_case "va recycling" `Quick test_va_recycling;
    Alcotest.test_case "mprotect" `Quick test_mprotect;
    Alcotest.test_case "pd lifecycle" `Quick test_pd_lifecycle;
    Alcotest.test_case "pd policy faults" `Quick test_pd_policy_faults;
    Alcotest.test_case "pmove transfers" `Quick test_pmove_transfers;
    Alcotest.test_case "pcopy keeps source" `Quick test_pcopy_keeps_source;
    Alcotest.test_case "no rights escalation" `Quick test_no_rights_escalation;
    Alcotest.test_case "attacker cannot touch unowned" `Quick
      test_attacker_cannot_touch_unowned;
    Alcotest.test_case "special mappings executor-only" `Quick
      test_special_mappings_executor_only;
    Alcotest.test_case "fault clears P bit" `Quick test_fault_clears_p_bit;
    Alcotest.test_case "gate entry fault clears P bit" `Quick
      test_gate_entry_fault_clears_p_bit;
    Alcotest.test_case "accounting" `Quick test_accounting;
    Alcotest.test_case "uat_config refills" `Quick test_refill_uses_uat_config;
    Alcotest.test_case "pd invalid ids" `Quick test_pd_invalid_ids;
    Alcotest.test_case "free list double free" `Quick test_free_list_double_free;
  ]
