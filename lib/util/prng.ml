(* xoshiro256** state s0..s3 as four native-endian int64 words of one
   32-byte buffer. The [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives
   read and write them unboxed, so a draw allocates nothing beyond its own
   result; four mutable [int64] record fields would box on every write. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 step, used for seeding and for [split]. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  set64 t 0 (splitmix64 state);
  set64 t 8 (splitmix64 state);
  set64 t 16 (splitmix64 state);
  set64 t 24 (splitmix64 state);
  t

let create ~seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t
let split t = of_splitmix (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L
