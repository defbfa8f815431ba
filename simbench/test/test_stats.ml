(* The benchmark's own statistics: the percentile-support rule, the sample
   counts it reports, and the window bookkeeping. *)

module Stats = Simbench_stats.Stats

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_support_rule () =
  (* p99 needs ten samples beyond its rank: 1,000 is the smallest sample. *)
  Alcotest.(check bool) "999 samples: no p99" false (Stats.supported ~n:999 ~p:99.0);
  Alcotest.(check bool) "1000 samples: p99" true (Stats.supported ~n:1000 ~p:99.0);
  Alcotest.(check bool) "19 samples: no p50" false (Stats.supported ~n:19 ~p:50.0);
  Alcotest.(check bool) "20 samples: p50" true (Stats.supported ~n:20 ~p:50.0);
  Alcotest.(check bool) "p100 never" false (Stats.supported ~n:1_000_000 ~p:100.0);
  Alcotest.(check bool) "empty never" false (Stats.supported ~n:0 ~p:50.0)

let test_percentile_values () =
  let a = ramp 1000 in
  Alcotest.(check (option (float 0.0))) "p99 of 1..1000" (Some 990.0) (Stats.percentile a 99.0);
  Alcotest.(check (option (float 0.0))) "p50 of 1..1000" (Some 500.0) (Stats.percentile a 50.0);
  Alcotest.(check (option (float 0.0))) "unsupported" None (Stats.percentile (ramp 999) 99.0);
  (* Order of the input does not matter and the input is left alone. *)
  let rev = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (option (float 0.0))) "reversed input" (Some 990.0) (Stats.percentile rev 99.0);
  Alcotest.(check (float 0.0)) "input untouched" 1000.0 rev.(0);
  (* Exactly ten samples lie beyond the reported p99. *)
  let beyond = Array.fold_left (fun n x -> if x > 990.0 then n + 1 else n) 0 a in
  Alcotest.(check int) "ten beyond" Stats.min_beyond beyond

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median [||]))

let test_trimmed_mean () =
  (* 10 samples, 10% trim: the lowest and the highest one are dropped. *)
  let a = [| 100.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; -50.0 |] in
  Alcotest.(check (float 1e-12)) "outliers dropped" 5.5 (Stats.trimmed_mean ~trim:0.1 a);
  Alcotest.(check (float 1e-12)) "no trim is the mean" 9.4 (Stats.trimmed_mean ~trim:0.0 a);
  (* Fewer than 10 samples: nothing to drop at 10%. *)
  Alcotest.(check (float 1e-12)) "small sample" 2.0 (Stats.trimmed_mean ~trim:0.1 [| 1.0; 3.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.trimmed_mean: no samples") (fun () ->
      ignore (Stats.trimmed_mean ~trim:0.1 [||]))

let test_windows () =
  let w = Stats.Windows.create () in
  Stats.Windows.record w ~host_s:0.002 ~events:5;
  Stats.Windows.record w ~host_s:0.001 ~events:0;
  Stats.Windows.record w ~host_s:0.004 ~events:1;
  Stats.Windows.record w ~host_s:0.0005 ~events:0;
  Alcotest.(check int) "counted" 2 (Stats.Windows.counted w);
  Alcotest.(check int) "empty windows skipped" 2 (Stats.Windows.skipped w);
  Alcotest.(check (array (float 1e-12)))
    "only windows with events, in ms, in order" [| 2.0; 4.0 |] (Stats.Windows.samples_ms w)

let test_windows_feed_percentiles () =
  (* 1,000 busy windows plus empty ones: the empty ones neither count
     toward the sample size nor move the percentile. *)
  let w = Stats.Windows.create () in
  for i = 1 to 1000 do
    Stats.Windows.record w ~host_s:(float_of_int i /. 1000.0) ~events:1;
    Stats.Windows.record w ~host_s:100.0 ~events:0
  done;
  let ms = Stats.Windows.samples_ms w in
  Alcotest.(check int) "sample count" 1000 (Array.length ms);
  Alcotest.(check (option (float 1e-9))) "p99" (Some 990.0) (Stats.percentile ms 99.0)

let () =
  Alcotest.run "simbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile support rule" `Quick test_support_rule;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "trimmed mean" `Quick test_trimmed_mean;
          Alcotest.test_case "window bookkeeping" `Quick test_windows;
          Alcotest.test_case "windows feed percentiles" `Quick test_windows_feed_percentiles;
        ] );
    ]
