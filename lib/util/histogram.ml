type t = {
  lowest : float;
  highest : float;
  sub_buckets : int;
  log_low : float;
  scale : float; (* sub-buckets per unit of log2 *)
  counts : int array;
  mutable count : int;
  mutable total : float;
  mutable max_v : float;
}

let create ?(lowest = 1.0) ?(highest = 1_000_000_000.0) ?(sub_buckets = 32) () =
  if lowest <= 0.0 || highest <= lowest || sub_buckets < 1 then
    invalid_arg "Histogram.create";
  let log_low = log lowest /. log 2.0 in
  let log_high = log highest /. log 2.0 in
  let scale = float_of_int sub_buckets in
  let nbuckets = int_of_float (ceil ((log_high -. log_low) *. scale)) + 2 in
  {
    lowest;
    highest;
    sub_buckets;
    log_low;
    scale;
    counts = Array.make nbuckets 0;
    count = 0;
    total = 0.0;
    max_v = neg_infinity;
  }

let bucket_of t v =
  let v = Float.max t.lowest (Float.min t.highest v) in
  let b = int_of_float (((log v /. log 2.0) -. t.log_low) *. t.scale) in
  Int.max 0 (Int.min (Array.length t.counts - 1) b)

let value_of_bucket t b =
  (* Geometric midpoint of the bucket. *)
  2.0 ** (t.log_low +. ((float_of_int b +. 0.5) /. t.scale))

let record_n t v n =
  if n < 0 then invalid_arg "Histogram.record_n";
  if n > 0 then begin
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + n;
    t.count <- t.count + n;
    t.total <- t.total +. (v *. float_of_int n);
    if v > t.max_v then t.max_v <- v
  end

let record t v = record_n t v 1
let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile";
  if t.count = 0 then 0.0
  else begin
    let target =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.count))
    in
    let target = Int.max 1 target in
    let n = Array.length t.counts in
    let rec go b acc =
      if b >= n then t.max_v
      else
        let acc = acc + t.counts.(b) in
        if acc >= target then Float.min t.max_v (value_of_bucket t b)
        else go (b + 1) acc
    in
    go 0 0
  end

let merge_into ~dst ~src =
  if
    Array.length dst.counts <> Array.length src.counts
    || dst.sub_buckets <> src.sub_buckets
    || dst.lowest <> src.lowest
  then invalid_arg "Histogram.merge_into: mismatched configuration";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.count <- dst.count + src.count;
  dst.total <- dst.total +. src.total;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v

let cdf t =
  if t.count = 0 then []
  else begin
    let acc = ref 0 in
    let out = ref [] in
    Array.iteri
      (fun b c ->
        if c > 0 then begin
          acc := !acc + c;
          out := (value_of_bucket t b, float_of_int !acc /. float_of_int t.count) :: !out
        end)
      t.counts;
    List.rev !out
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.total <- 0.0;
  t.max_v <- neg_infinity
