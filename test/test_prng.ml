open Jord_util

let test_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_independent () =
  let a = Prng.create ~seed:9 in
  let b = Prng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "split stream distinct" true (!matches < 4)

let test_int_bounds () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_float_bounds () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 3.0 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.0)
  done

let test_uniformity () =
  (* Chi-square-ish sanity: all 16 buckets populated within 3x of each
     other over 32k draws. *)
  let p = Prng.create ~seed:11 in
  let buckets = Array.make 16 0 in
  for _ = 1 to 32_768 do
    let b = Prng.int p 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let mn = Array.fold_left Int.min max_int buckets in
  let mx = Array.fold_left Int.max 0 buckets in
  Alcotest.(check bool)
    (Printf.sprintf "bucket spread min=%d max=%d" mn mx)
    true
    (mn > 1500 && mx < 2700)

(* Known answers: the first outputs of fixed seeds, pinned so any change of
   the generator's state representation must keep the stream bit-identical
   (every seeded experiment and golden number rests on it). *)
let kat_seed123 =
  [
    3628370374969813497L; -561292132998099618L; 8622752019489400367L;
    2342437615205057030L; 6230968350287952094L; -1710872939911062L;
    6972174322906985755L; -6333738554522461611L; -4408176657788248108L;
    8031771363777928304L; -6415492878863288390L; -4323378339223746483L;
    697772660079143621L; 5876297670408615156L; -6265409380721734544L;
    3423084930429465363L;
  ]

let kat_split123 =
  [
    -7150890503560029434L; 1984033426620997199L; 4211550364320927838L;
    -6932491759076761850L; 3653083890571717563L; 6627569028335395363L;
    4328372637762346630L; 2338875740003923720L; 831155700420594320L;
    -6842361839208967971L; 5461758529684241425L; 3380750865871474352L;
    6780709085496321654L; -3172243396412304810L; -5289500376094202038L;
    2364664549671757959L;
  ]

let test_known_answers () =
  let p = Prng.create ~seed:123 in
  List.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "bits64 #%d" i) v (Prng.bits64 p))
    kat_seed123;
  let q = Prng.split (Prng.create ~seed:123) in
  List.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "split bits64 #%d" i) v (Prng.bits64 q))
    kat_split123;
  (* Derived draws from one stream, in order: int, then float, then bool. *)
  let r = Prng.create ~seed:77 in
  List.iter
    (fun v -> Alcotest.(check int) "int 1000" v (Prng.int r 1000))
    [ 764; 130; 379; 131; 883; 348; 717; 412 ];
  List.iter
    (fun v -> Alcotest.(check (float 0.0)) "float 3.5" v (Prng.float r 3.5))
    [
      0x1.ee941a7a45489p+0; 0x1.6e1afb1d8cfebp+0; 0x1.ada41046f39f3p+1;
      0x1.d1563f5a7cb2ep-2; 0x1.d00b3c514db54p-1; 0x1.0894116e4a09fp-2;
      0x1.278229c5e471fp+1; 0x1.8bdf475ad4a05p+0;
    ];
  List.iter
    (fun v -> Alcotest.(check bool) "bool" v (Prng.bool r))
    [ false; true; false; true; false; true; true; false ]

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "known answers" `Quick test_known_answers;
  ]
