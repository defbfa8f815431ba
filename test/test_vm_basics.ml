open Jord_vm

(* Perm, Size_class, Va, Vte *)

let test_perm () =
  Alcotest.(check bool) "rw reads" true (Perm.can_read Perm.rw);
  Alcotest.(check bool) "rw writes" true (Perm.can_write Perm.rw);
  Alcotest.(check bool) "rw no exec" false (Perm.can_exec Perm.rw);
  Alcotest.(check bool) "subsumes" true (Perm.subsumes Perm.rwx Perm.rx);
  Alcotest.(check bool) "not subsumes" false (Perm.subsumes Perm.r Perm.rw);
  Alcotest.(check bool) "allows" true (Perm.allows Perm.rx Perm.Exec);
  Alcotest.(check bool) "denies" false (Perm.allows Perm.rx Perm.Write);
  Alcotest.(check string) "render" "r-x" (Perm.to_string Perm.rx);
  Alcotest.(check bool) "make" true (Perm.equal Perm.rw (Perm.make ~read:true ~write:true ()))

let test_size_class () =
  Alcotest.(check int) "26 classes" 26 Size_class.count;
  Alcotest.(check int) "min" 128 (Size_class.bytes (Size_class.of_index 0));
  Alcotest.(check int) "max" (1 lsl 32) (Size_class.bytes (Size_class.of_index 25));
  Alcotest.(check int) "1 byte -> 128" 128 (Size_class.bytes (Size_class.of_size 1));
  Alcotest.(check int) "129 -> 256" 256 (Size_class.bytes (Size_class.of_size 129));
  Alcotest.(check int) "4096 exact" 4096 (Size_class.bytes (Size_class.of_size 4096));
  Alcotest.(check int) "offset bits" 12 (Size_class.offset_bits (Size_class.of_size 4096));
  Alcotest.check_raises "zero" (Invalid_argument "Size_class.of_size") (fun () ->
      ignore (Size_class.of_size 0))

let cfg = Va.default_config

let test_va_roundtrip () =
  let sc = Size_class.of_size 4096 in
  let va = Va.encode cfg sc ~index:42 ~offset:123 in
  Alcotest.(check bool) "jord tagged" true (Va.is_jord cfg va);
  (match Va.decode cfg va with
  | Some (sc', index, offset) ->
      Alcotest.(check int) "class" (Size_class.to_index sc) (Size_class.to_index sc');
      Alcotest.(check int) "index" 42 index;
      Alcotest.(check int) "offset" 123 offset
  | None -> Alcotest.fail "decode failed")

let test_va_rejects_foreign () =
  Alcotest.(check bool) "plain address" false (Va.is_jord cfg 0x1000);
  Alcotest.(check (option reject)) "decode foreign" None
    (Option.map (fun _ -> ()) (Va.decode cfg 0x1000))

let test_vte_positions () =
  (* f interleaves classes: consecutive indices of one class are
     Size_class.count entries apart. *)
  let sc = Size_class.of_index 3 in
  let a0 = Va.vte_addr cfg sc ~index:0 in
  let a1 = Va.vte_addr cfg sc ~index:1 in
  Alcotest.(check int) "stride" (Size_class.count * Va.vte_bytes) (a1 - a0);
  (* Two classes at the same index land on distinct entries. *)
  let b0 = Va.vte_addr cfg (Size_class.of_index 4) ~index:0 in
  Alcotest.(check bool) "distinct" true (a0 <> b0);
  let va = Va.encode cfg sc ~index:7 ~offset:11 in
  Alcotest.(check int) "vte_addr_of_va" (Va.vte_addr cfg sc ~index:7)
    (Va.vte_addr_of_va cfg va)

let prop_va_roundtrip =
  QCheck.Test.make ~name:"VA encode/decode roundtrip"
    QCheck.(triple (int_bound 25) (int_bound 1000) (int_bound 100))
    (fun (ci, index, offset) ->
      let sc = Size_class.of_index ci in
      let offset = offset mod Size_class.bytes sc in
      let va = Va.encode cfg sc ~index ~offset in
      Va.decode cfg va = Some (sc, index, offset))

let prop_vte_index_injective =
  QCheck.Test.make ~name:"VTE positions are injective across (class, index)"
    QCheck.(pair (pair (int_bound 25) (int_bound 500)) (pair (int_bound 25) (int_bound 500)))
    (fun ((c1, i1), (c2, i2)) ->
      let a = Va.vte_index cfg (Size_class.of_index c1) ~index:i1 in
      let b = Va.vte_index cfg (Size_class.of_index c2) ~index:i2 in
      (c1 = c2 && i1 = i2) = (a = b))

let test_vte_perms () =
  let vte = Vte.create ~base:0x1000 ~bytes:512 ~phys:0x8000 () in
  Alcotest.(check bool) "no perm initially" true
    (Perm.equal Perm.none (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.rw;
  Alcotest.(check bool) "granted" true (Perm.equal Perm.rw (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.r;
  Alcotest.(check bool) "replaced" true (Perm.equal Perm.r (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.none;
  Alcotest.(check int) "removed" 0 (Vte.sharer_count vte)

let test_vte_overflow () =
  let vte = Vte.create ~base:0x1000 ~bytes:512 ~phys:0x8000 () in
  (* More sharers than the 20-entry sub-array. *)
  for pd = 1 to 25 do
    Vte.set_perm vte ~pd Perm.r
  done;
  Alcotest.(check int) "25 sharers" 25 (Vte.sharer_count vte);
  Alcotest.(check bool) "pd 25 resolvable" true
    (Perm.equal Perm.r (Vte.perm_for vte ~pd:25));
  (* A PD beyond slot 20 needs the overflow pointer; one within does not. *)
  Alcotest.(check bool) "overflow chase for late pd" true
    (Vte.overflow_lookup_needed vte ~pd:25);
  Alcotest.(check bool) "sub-array hit for early pd" false
    (Vte.overflow_lookup_needed vte ~pd:1);
  (* Removing an early PD lets an overflow entry... stay resolvable. *)
  Vte.set_perm vte ~pd:1 Perm.none;
  Alcotest.(check int) "24 sharers" 24 (Vte.sharer_count vte)

let test_vte_global_and_cover () =
  let vte =
    Vte.create ~base:0x2000 ~bytes:100 ~phys:0x9000 ~global_perm:(Some Perm.rx) ()
  in
  Alcotest.(check bool) "global applies to any pd" true
    (Perm.equal Perm.rx (Vte.perm_for vte ~pd:99));
  Alcotest.(check bool) "covers" true (Vte.covers vte 0x2063);
  Alcotest.(check bool) "bound respected" false (Vte.covers vte 0x2064);
  Alcotest.(check int) "translate" 0x9004 (Vte.translate vte 0x2004)

let test_vte_resize () =
  let vte = Vte.create ~base:0x3000 ~bytes:100 ~phys:0xA000 () in
  Vte.resize vte ~bytes:128;
  Alcotest.(check int) "grown within chunk" 128 (Vte.bytes vte);
  Alcotest.check_raises "beyond chunk" (Invalid_argument "Vte.resize") (fun () ->
      Vte.resize vte ~bytes:129)

let suite =
  [
    Alcotest.test_case "perm" `Quick test_perm;
    Alcotest.test_case "size classes" `Quick test_size_class;
    Alcotest.test_case "va roundtrip" `Quick test_va_roundtrip;
    Alcotest.test_case "va rejects foreign" `Quick test_va_rejects_foreign;
    Alcotest.test_case "vte positions" `Quick test_vte_positions;
    QCheck_alcotest.to_alcotest prop_va_roundtrip;
    QCheck_alcotest.to_alcotest prop_vte_index_injective;
    Alcotest.test_case "vte perms" `Quick test_vte_perms;
    Alcotest.test_case "vte sub-array overflow" `Quick test_vte_overflow;
    Alcotest.test_case "vte global/cover/translate" `Quick test_vte_global_and_cover;
    Alcotest.test_case "vte resize" `Quick test_vte_resize;
  ]
