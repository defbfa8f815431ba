open Jord_vm

let cfg = Va.default_config

let mk_vte ?(bytes = 4096) ~index () =
  let sc = Size_class.of_size bytes in
  let base = Va.encode cfg sc ~index ~offset:0 in
  Vte.create ~base ~bytes ~phys:(0x100000 + (index * bytes)) ()

let fp = Footprint.create ()

(* --- plain list --- *)

let test_plain_roundtrip () =
  let t = Vma_table.create cfg in
  let vte = mk_vte ~index:5 () in
  Vma_table.insert t fp vte;
  Alcotest.(check (list int)) "one line written"
    [ Va.vte_addr_of_va cfg (Vte.base vte) ] (Footprint.writes fp);
  (match Vma_table.lookup t fp ~va:(Vte.base vte + 100) with
  | Some found ->
      Alcotest.(check int) "same entry" (Vte.base vte) (Vte.base found);
      Alcotest.(check (list int)) "lookup touches the computed VTE line"
        [ Va.vte_addr_of_va cfg (Vte.base vte) ] (Footprint.reads fp);
      Alcotest.(check int) "lookup writes nothing" 0 (Footprint.n_writes fp)
  | None -> Alcotest.fail "lookup failed");
  (match Vma_table.remove t fp ~va:(Vte.base vte) with
  | Some _ -> ()
  | None -> Alcotest.fail "remove failed");
  Alcotest.(check int) "empty" 0 (Vma_table.count t)

let test_plain_bound_check () =
  let t = Vma_table.create cfg in
  let sc = Size_class.of_size 4096 in
  let base = Va.encode cfg sc ~index:9 ~offset:0 in
  let vte = Vte.create ~base ~bytes:100 ~phys:0x5000 () in
  Vma_table.insert t fp vte;
  (* Inside the bound hits; past the bound (but within the chunk) misses. *)
  Alcotest.(check bool) "within bound" true (Vma_table.lookup t fp ~va:(base + 99) <> None);
  Alcotest.(check bool) "past bound" true (Vma_table.lookup t fp ~va:(base + 100) = None)

let test_plain_slot_conflict () =
  let t = Vma_table.create cfg in
  Vma_table.insert t fp (mk_vte ~index:7 ());
  Alcotest.check_raises "occupied" (Invalid_argument "Vma_table.insert: slot occupied")
    (fun () -> Vma_table.insert t fp (mk_vte ~index:7 ()))

let test_plain_non_jord () =
  let t = Vma_table.create cfg in
  Alcotest.(check bool) "non-jord lookup" true (Vma_table.lookup t fp ~va:0x1234 = None);
  Alcotest.(check int) "non-jord lookup touches nothing" 0 (Footprint.n_reads fp)

(* Slots far past the table's initial array: 300 4 KB entries are spread
   over slots up to 300 * Size_class.count. *)
let test_plain_growth () =
  let t = Vma_table.create cfg in
  let n = 300 in
  for index = 0 to n - 1 do
    Vma_table.insert t fp (mk_vte ~index ())
  done;
  Alcotest.(check int) "all inserted" n (Vma_table.count t);
  let base index = Vte.base (mk_vte ~index ()) in
  for index = 0 to n - 1 do
    match Vma_table.find_base t ~base:(base index) with
    | Some v -> Alcotest.(check int) "find_base" (base index) (Vte.base v)
    | None -> Alcotest.failf "entry %d lost after growth" index
  done;
  for index = 0 to n - 1 do
    if index mod 3 = 0 then
      Alcotest.(check bool) "removed" true
        (Vma_table.remove t fp ~va:(base index + 8) <> None)
  done;
  Alcotest.(check int) "count after removals" (n - 100) (Vma_table.count t);
  Alcotest.(check bool) "removed entry absent" true
    (Vma_table.find_base t ~base:(base 3) = None);
  Alcotest.(check bool) "neighbour kept" true
    (Vma_table.lookup t fp ~va:(base 4 + 1) <> None);
  Vma_table.insert t fp (mk_vte ~index:3 ());
  Alcotest.(check bool) "reinserted" true (Vma_table.find_base t ~base:(base 3) <> None);
  Alcotest.(check int) "count after reinsert" (n - 99) (Vma_table.count t);
  let beyond = Vte.base (mk_vte ~index:(10 * n) ()) in
  Alcotest.(check bool) "past the array" true (Vma_table.lookup t fp ~va:beyond = None);
  Alcotest.(check bool) "past the array, by base" true
    (Vma_table.find_base t ~base:beyond = None);
  Alcotest.(check bool) "remove past the array" true
    (Vma_table.remove t fp ~va:beyond = None)

(* --- B-tree --- *)

let test_btree_basic () =
  let t = Vma_btree.create () in
  let v1 = mk_vte ~index:1 () and v2 = mk_vte ~index:2 () in
  Vma_btree.insert t fp v1;
  Vma_btree.insert t fp v2;
  Alcotest.(check int) "count" 2 (Vma_btree.count t);
  (match Vma_btree.lookup t fp ~va:(Vte.base v2 + 8) with
  | Some f -> Alcotest.(check int) "floor finds v2" (Vte.base v2) (Vte.base f)
  | None -> Alcotest.fail "lookup failed");
  (* An address below every key misses. *)
  Alcotest.(check bool) "below all" true (Vma_btree.lookup t fp ~va:1 = None);
  (match Vma_btree.remove t fp ~va:(Vte.base v1) with
  | Some _ -> ()
  | None -> Alcotest.fail "remove failed");
  Alcotest.(check int) "count after remove" 1 (Vma_btree.count t);
  Alcotest.(check bool) "invariants" true (Vma_btree.check_invariants t = Ok ())

let test_btree_duplicate () =
  let t = Vma_btree.create () in
  Vma_btree.insert t fp (mk_vte ~index:3 ());
  Alcotest.check_raises "duplicate" (Invalid_argument "Vma_btree.insert: duplicate base")
    (fun () -> Vma_btree.insert t fp (mk_vte ~index:3 ()))

let test_btree_growth_and_footprint () =
  let t = Vma_btree.create () in
  for i = 0 to 299 do
    Vma_btree.insert t fp (mk_vte ~index:i ())
  done;
  Alcotest.(check bool) "tree grew" true (Vma_btree.height t >= 2);
  Alcotest.(check bool) "splits happened" true (Vma_btree.rebalance_ops t > 0);
  Alcotest.(check bool) "invariants" true (Vma_btree.check_invariants t = Ok ());
  ignore (Vma_btree.lookup t fp ~va:(Vte.base (mk_vte ~index:150 ())));
  Alcotest.(check bool) "walk touches >= 2 node reads" true (Footprint.n_reads fp >= 2)

let prop_btree_model =
  (* Random interleavings of insert/remove agree with a Map model and keep
     the B-tree invariants. *)
  QCheck.Test.make ~name:"b-tree agrees with a Map model" ~count:60
    QCheck.(list_of_size Gen.(0 -- 200) (pair bool (int_bound 120)))
    (fun ops ->
      let module M = Map.Make (Int) in
      let t = Vma_btree.create () in
      let model = ref M.empty in
      List.iter
        (fun (add, index) ->
          let vte = mk_vte ~index () in
          let base = Vte.base vte in
          if add then begin
            if not (M.mem base !model) then begin
              Vma_btree.insert t fp vte;
              model := M.add base vte !model
            end
          end
          else if M.mem base !model then begin
            (match Vma_btree.remove t fp ~va:base with
            | Some _ -> ()
            | None -> failwith "model mismatch: remove");
            model := M.remove base !model
          end)
        ops;
      (match Vma_btree.check_invariants t with
      | Ok () -> ()
      | Error e -> failwith e);
      Vma_btree.count t = M.cardinal !model
      && M.for_all
           (fun base _ ->
             match Vma_btree.lookup t fp ~va:(base + 1) with
             | Some f -> Vte.base f = base
             | None -> false)
           !model)

(* --- unified store --- *)

let test_store_dispatch () =
  let plain = Vma_store.plain cfg in
  let btree = Vma_store.btree () in
  Alcotest.(check string) "plain kind" "plain-list" (Vma_store.kind plain);
  Alcotest.(check string) "btree kind" "b-tree" (Vma_store.kind btree);
  List.iter
    (fun store ->
      let vte = mk_vte ~index:11 () in
      Vma_store.insert store vte;
      Alcotest.(check bool) "found" true (Vma_store.lookup store ~va:(Vte.base vte) <> None);
      Alcotest.(check bool) "find_base" true
        (Vma_store.find_base store ~base:(Vte.base vte) <> None);
      Alcotest.(check int) "count" 1 (Vma_store.count store))
    [ plain; btree ];
  Alcotest.(check bool) "plain search is cheaper" true
    (Vma_store.search_instrs plain < Vma_store.search_instrs btree)

let suite =
  [
    Alcotest.test_case "plain roundtrip" `Quick test_plain_roundtrip;
    Alcotest.test_case "plain bound check" `Quick test_plain_bound_check;
    Alcotest.test_case "plain slot conflict" `Quick test_plain_slot_conflict;
    Alcotest.test_case "plain non-jord" `Quick test_plain_non_jord;
    Alcotest.test_case "plain growth" `Quick test_plain_growth;
    Alcotest.test_case "btree basic" `Quick test_btree_basic;
    Alcotest.test_case "btree duplicate" `Quick test_btree_duplicate;
    Alcotest.test_case "btree growth/footprint" `Quick test_btree_growth_and_footprint;
    QCheck_alcotest.to_alcotest prop_btree_model;
    Alcotest.test_case "unified store" `Quick test_store_dispatch;
  ]
