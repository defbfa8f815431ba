(* Time arithmetic and conversion invariants. *)
open Jord_sim

let prop_ns_roundtrip =
  QCheck.Test.make ~name:"ns->Time->ns roundtrip within 1 ps"
    QCheck.(float_bound_exclusive 1e9)
    (fun ns ->
      let ns = Float.abs ns in
      Float.abs (Time.to_ns (Time.of_ns ns) -. ns) <= 0.001)

let prop_addition =
  QCheck.Test.make ~name:"Time addition is exact"
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) -> Time.(a + b) = a + b && Time.(a + b - b) = a)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ns_roundtrip;
    QCheck_alcotest.to_alcotest prop_addition;
  ]
