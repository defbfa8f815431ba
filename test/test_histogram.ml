open Jord_util

let test_counts () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty" 0 (Histogram.count h);
  Histogram.record h 100.0;
  Histogram.record_n h 200.0 3;
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "total" 700.0 (Histogram.total h);
  Alcotest.(check (float 1e-6)) "mean" 175.0 (Histogram.mean h)

let test_min_max () =
  let h = Histogram.create () in
  Histogram.record h 50.0;
  Histogram.record h 5000.0;
  (* The extreme percentiles land in the extreme samples' buckets, and the
     top one never reports above the largest sample. *)
  let near x v = Float.abs (v -. x) /. x < 0.03 in
  Alcotest.(check bool) "p0 near min" true (near 50.0 (Histogram.percentile h 0.0));
  let p100 = Histogram.percentile h 100.0 in
  Alcotest.(check bool) "p100 near max" true (near 5000.0 p100 && p100 <= 5000.0)

let test_percentile_accuracy () =
  (* With geometric buckets the relative quantization error is bounded by
     2^(1/sub_buckets) - 1 (~2.2% at 32 sub-buckets). *)
  let h = Histogram.create () in
  let p = Prng.create ~seed:21 in
  let samples = Array.init 20_000 (fun _ -> Sample.uniform p ~lo:100.0 ~hi:10000.0) in
  Array.iter (Histogram.record h) samples;
  List.iter
    (fun q ->
      let approx = Histogram.percentile h q in
      let exact = Stats.percentile samples q in
      let rel = Float.abs (approx -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f rel err %.3f" q rel)
        true (rel < 0.05))
    [ 50.0; 90.0; 99.0 ]

let test_percentile_edges () =
  let h = Histogram.create () in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Histogram.percentile h 99.0);
  Histogram.record h 42.0;
  let p50 = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "single sample near itself" true (Float.abs (p50 -. 42.0) < 2.0)

let test_clamping () =
  let h = Histogram.create ~lowest:10.0 ~highest:1000.0 () in
  Histogram.record h 1.0;
  Histogram.record h 1e9;
  Alcotest.(check int) "both recorded" 2 (Histogram.count h)

let test_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100.0;
  Histogram.record b 900.0;
  Histogram.merge_into ~dst:a ~src:b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  let p100 = Histogram.percentile a 100.0 in
  Alcotest.(check bool) "merged max" true (p100 <= 900.0 && p100 > 870.0)

let test_cdf () =
  let h = Histogram.create () in
  Histogram.record_n h 100.0 3;
  Histogram.record h 1000.0;
  let cdf = Histogram.cdf h in
  Alcotest.(check int) "two points" 2 (List.length cdf);
  let _, last = List.nth cdf 1 in
  Alcotest.(check (float 1e-9)) "cdf reaches 1" 1.0 last;
  let _, first = List.nth cdf 0 in
  Alcotest.(check (float 1e-9)) "first fraction" 0.75 first

let test_clear () =
  let h = Histogram.create () in
  Histogram.record h 5.0;
  Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Histogram.count h)

let prop_percentile_order =
  QCheck.Test.make ~name:"histogram percentile is monotone"
    QCheck.(list_of_size Gen.(1 -- 100) (float_range 1.0 1e6))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let p50 = Histogram.percentile h 50.0 in
      let p90 = Histogram.percentile h 90.0 in
      let p99 = Histogram.percentile h 99.0 in
      p50 <= p90 +. 1e-9 && p90 <= p99 +. 1e-9)

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "percentile accuracy" `Quick test_percentile_accuracy;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
    Alcotest.test_case "clamping" `Quick test_clamping;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "clear" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_percentile_order;
  ]
