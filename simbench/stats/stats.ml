let min_beyond = 10

(* Nearest rank of the p-th percentile among n sorted samples (1-based). *)
let rank ~n ~p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let supported ~n ~p = p > 0.0 && p < 100.0 && n > 0 && n - rank ~n ~p >= min_beyond

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile a p =
  let n = Array.length a in
  if supported ~n ~p then Some (sorted a).(rank ~n ~p - 1) else None

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let trimmed_mean ~trim a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.trimmed_mean: no samples";
  let k = int_of_float (trim *. float_of_int n) in
  let s = sorted a in
  let sum = ref 0.0 in
  for i = k to n - k - 1 do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (n - (2 * k))

module Windows = struct
  type t = { mutable ms : float list; mutable counted : int; mutable skipped : int }

  let create () = { ms = []; counted = 0; skipped = 0 }

  let record t ~host_s ~events =
    if events > 0 then begin
      t.ms <- (host_s *. 1000.0) :: t.ms;
      t.counted <- t.counted + 1
    end
    else t.skipped <- t.skipped + 1

  let counted t = t.counted
  let skipped t = t.skipped
  let samples_ms t = Array.of_list (List.rev t.ms)
end
