let test_ladder_ordering () =
  let rows = Jord_exp.Background.run () in
  Alcotest.(check int) "four systems" 4 (List.length rows);
  let ov s =
    (List.find (fun r -> r.Jord_exp.Background.system = s) rows)
      .Jord_exp.Background.warm_overhead_ns
  in
  let su s =
    (List.find (fun r -> r.Jord_exp.Background.system = s) rows)
      .Jord_exp.Background.startup_ns
  in
  let trad = ov "traditional (containers/microVMs)" in
  let nc = ov "enhanced NightCore (threads+pipes)" in
  let jord = ov "Jord" in
  (* ms -> us -> ~hundred ns: each generation at least an order of
     magnitude apart. *)
  Alcotest.(check bool) "traditional is ms-scale" true (trad > 1e6);
  Alcotest.(check bool) "NightCore is us-scale" true (nc > 1e3 && nc < 100e3);
  Alcotest.(check bool)
    (Printf.sprintf "Jord is ~100 ns (%.0f)" jord)
    true
    (jord > 40.0 && jord < 400.0);
  Alcotest.(check bool) "10x+ per generation" true
    (trad > 10.0 *. nc && nc > 10.0 *. jord);
  (* Startup: 120 ms -> 0.8 ms -> tens of ns. *)
  Alcotest.(check bool) "jord startup ns-scale" true (su "Jord" < 200.0)

let test_traditional_model () =
  let t = Jord_baseline.Traditional.default in
  let small = Jord_baseline.Traditional.invocation_overhead_ns t ~arg_bytes:64 in
  let big = Jord_baseline.Traditional.invocation_overhead_ns t ~arg_bytes:1_000_000 in
  Alcotest.(check bool) "bytes cost through the channel" true (big > small +. 1e6)

let suite =
  [
    Alcotest.test_case "overhead ladder" `Quick test_ladder_ordering;
    Alcotest.test_case "traditional model" `Quick test_traditional_model;
  ]
