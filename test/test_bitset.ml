open Jord_util

let test_basic () =
  let s = Bitset.create 300 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 299;
  Bitset.add s 63;
  Bitset.add s 64;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 299" true (Bitset.mem s 299);
  Alcotest.(check bool) "not mem 5" false (Bitset.mem s 5);
  Bitset.remove s 63;
  Alcotest.(check int) "after remove" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 299 ] (Bitset.to_list s)

let test_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  Alcotest.(check int) "double add" 1 (Bitset.cardinal s);
  Bitset.remove s 3;
  Bitset.remove s 3;
  Alcotest.(check int) "double remove" 0 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: out of range")
    (fun () -> Bitset.add s 8)

let test_copy_clear () =
  let s = Bitset.create 100 in
  Bitset.add s 42;
  let c = Bitset.copy s in
  Bitset.clear s;
  Alcotest.(check bool) "copy unaffected" true (Bitset.mem c 42);
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let prop_model =
  QCheck.Test.make ~name:"bitset agrees with a Set model"
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let module S = Set.Make (Int) in
      let s = Bitset.create 200 in
      let model = ref S.empty in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            model := S.add i !model
          end
          else begin
            Bitset.remove s i;
            model := S.remove i !model
          end)
        ops;
      Bitset.to_list s = S.elements !model
      && Bitset.cardinal s = S.cardinal !model)

let test_next_set () =
  let s = Bitset.create 130 in
  Alcotest.(check int) "empty" (-1) (Bitset.next_set s 0);
  List.iter (Bitset.add s) [ 0; 61; 62; 129 ];
  Alcotest.(check int) "member itself" 0 (Bitset.next_set s 0);
  Alcotest.(check int) "last bit of a word" 61 (Bitset.next_set s 1);
  Alcotest.(check int) "first bit of the next word" 62 (Bitset.next_set s 62);
  Alcotest.(check int) "skips an empty word" 129 (Bitset.next_set s 63);
  Alcotest.(check int) "past the last member" (-1) (Bitset.next_set s 130);
  Alcotest.(check int) "negative start" 0 (Bitset.next_set s (-5))

(* Walking [next_set] and [iter] visit exactly the model's members in
   ascending order, also when each visited member is removed on the way. *)
let prop_enumeration =
  QCheck.Test.make ~name:"next_set and iter enumerate the members in order"
    QCheck.(list (int_bound 199))
    (fun members ->
      let module S = Set.Make (Int) in
      let expected = S.elements (S.of_list members) in
      let fresh () =
        let s = Bitset.create 200 in
        List.iter (Bitset.add s) members;
        s
      in
      let walk ~remove =
        let s = fresh () in
        let seen = ref [] in
        let i = ref (Bitset.next_set s 0) in
        while !i >= 0 do
          seen := !i :: !seen;
          if remove then Bitset.remove s !i;
          i := Bitset.next_set s (!i + 1)
        done;
        (List.rev !seen, Bitset.is_empty s)
      in
      let iterated ~remove =
        let s = fresh () in
        let seen = ref [] in
        Bitset.iter
          (fun i ->
            seen := i :: !seen;
            if remove then Bitset.remove s i)
          s;
        (List.rev !seen, Bitset.is_empty s)
      in
      let nonempty = expected <> [] in
      walk ~remove:false = (expected, not nonempty)
      && walk ~remove:true = (expected, true)
      && iterated ~remove:false = (expected, not nonempty)
      && iterated ~remove:true = (expected, true))

let suite =
  [
    Alcotest.test_case "next_set" `Quick test_next_set;
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "copy and clear" `Quick test_copy_clear;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_enumeration;
  ]
