(* Property tests of PrivLib: arbitrary well-formed operation sequences
   preserve the allocator/table invariants, and the hardware view (VLBs)
   never serves a translation the table no longer holds. *)

open Jord_vm
module Pl = Jord_privlib.Privlib

type op = Map of int | Unmap of int | Protect of int | Grant of int | Cycle_pd

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Map (128 + (i * 97))) (int_bound 40));
        (3, map (fun i -> Unmap i) (int_bound 20));
        (2, map (fun i -> Protect i) (int_bound 20));
        (2, map (fun i -> Grant i) (int_bound 20));
        (1, return Cycle_pd);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "[%d ops]" (List.length l))
    QCheck.Gen.(list_size (int_bound 120) gen_op)

let make () =
  let memsys = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let hw =
    Hw.create ~memsys ~store:(Vma_store.plain Va.default_config)
      ~va_cfg:Va.default_config ()
  in
  (Pl.create ~hw ~os:(Jord_privlib.Os_facade.create ()), hw)

let run_ops pl hw ops =
  (* Interpret ops against a model: [live] is the VAs PD 0 currently owns. *)
  let live = ref [] in
  let pick i = match !live with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  List.iter
    (fun op ->
      match op with
      | Map bytes ->
          let va, _ = Pl.mmap pl ~core:0 ~bytes ~perm:Perm.rw () in
          live := va :: !live
      | Unmap i -> (
          match pick i with
          | None -> ()
          | Some va ->
              ignore (Pl.munmap pl ~core:0 ~va);
              live := List.filter (fun v -> v <> va) !live)
      | Protect i -> (
          match pick i with
          | None -> ()
          | Some va -> ignore (Pl.mprotect pl ~core:0 ~va ~perm:Perm.r ()))
      | Grant i -> (
          match pick i with
          | None -> ()
          | Some va ->
              let pd, _ = Pl.cget pl ~core:0 in
              ignore (Pl.pcopy pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.r);
              (* cput while the grant is outstanding must be rejected... *)
              (match Pl.cput pl ~core:0 ~pd with
              | _ -> failwith "cput accepted a PD with outstanding grants"
              | exception Fault.Fault (Fault.Bad_handle _) -> ());
              (* ...revoking first makes it legal. *)
              ignore (Pl.mprotect pl ~core:0 ~pd ~va ~perm:Perm.none ());
              ignore (Pl.cput pl ~core:0 ~pd))
      | Cycle_pd ->
          let pd, _ = Pl.cget pl ~core:1 in
          ignore (Pl.ccall pl ~core:1 ~pd);
          ignore (Pl.creturn pl ~core:1);
          ignore (Pl.cput pl ~core:1 ~pd))
    ops;
  ignore hw;
  !live

let prop_table_matches_model =
  QCheck.Test.make ~name:"privlib ops: table tracks exactly the live VMAs" ~count:40
    arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      let store = Hw.store hw in
      (* 3 bootstrap VMAs + live ones. *)
      Vma_store.count store = 3 + List.length live
      && List.for_all (fun va -> Vma_store.lookup store ~va <> None) live)

let prop_vlb_never_stale =
  QCheck.Test.make ~name:"privlib ops: VLBs never serve unmapped VAs" ~count:40 arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      (* Touch everything live, then unmap it all; every later access must
         fault (a stale VLB entry would instead translate). *)
      List.for_all
        (fun va ->
          ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
          ignore (Pl.munmap pl ~core:0 ~va);
          match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
          | exception Fault.Fault (Fault.Unmapped _) -> true
          | _ -> false)
        live)

let prop_chunks_conserved =
  QCheck.Test.make ~name:"privlib ops: allocator live count matches live VMAs" ~count:40
    arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      (* 3 bootstrap chunks + live. *)
      Jord_privlib.Free_list.live_chunks (Pl.free_lists pl) = 3 + List.length live)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_table_matches_model;
    QCheck_alcotest.to_alcotest prop_vlb_never_stale;
    QCheck_alcotest.to_alcotest prop_chunks_conserved;
  ]
