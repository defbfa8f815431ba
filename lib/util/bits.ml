let is_power_of_two n = n > 0 && n land (n - 1) = 0

let ceil_pow2 n =
  if n <= 0 then invalid_arg "Bits.ceil_pow2";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let log2_exact n =
  if not (is_power_of_two n) then invalid_arg "Bits.log2_exact";
  let rec go k p = if p = n then k else go (k + 1) (p * 2) in
  go 0 1

let ceil_log2 n = log2_exact (ceil_pow2 n)

let ceil_div a b =
  if b <= 0 then invalid_arg "Bits.ceil_div";
  (a + b - 1) / b

let align_up x a =
  if not (is_power_of_two a) then invalid_arg "Bits.align_up";
  (x + a - 1) land lnot (a - 1)

let extract v ~lo ~width =
  if lo < 0 || width <= 0 || lo + width > 62 then invalid_arg "Bits.extract";
  (v lsr lo) land ((1 lsl width) - 1)

let insert v ~lo ~width ~field =
  if lo < 0 || width <= 0 || lo + width > 62 then invalid_arg "Bits.insert";
  let mask = ((1 lsl width) - 1) lsl lo in
  v land lnot mask lor ((field lsl lo) land mask)

(* Binary search over halves of the word. *)
let lowest_bit w =
  let w = ref w and n = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n
