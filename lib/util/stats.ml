type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let stddev samples =
  let n = Array.length samples in
  if n < 2 then 0.0
  else
    let m = mean samples in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 samples in
    sqrt (acc /. float_of_int n)

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentile samples p =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  percentile_sorted sorted p

let summarize samples =
  let n = Array.length samples in
  if n = 0 then
    { count = 0; mean = 0.0; stddev = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p90 = 0.0; p99 = 0.0 }
  else
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    {
      count = n;
      mean = mean samples;
      stddev = stddev samples;
      min = sorted.(0);
      max = sorted.(n - 1);
      p50 = percentile_sorted sorted 50.0;
      p90 = percentile_sorted sorted 90.0;
      p99 = percentile_sorted sorted 99.0;
    }
