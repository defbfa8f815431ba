(** Bit-level utilities shared by the virtual-memory and cache models. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] is [true] iff [n] is a positive power of two. *)

val ceil_pow2 : int -> int
(** [ceil_pow2 n] is the smallest power of two [>= n]. [n] must be positive. *)

val log2_exact : int -> int
(** [log2_exact n] is [log2 n] for a positive power of two [n].
    @raise Invalid_argument otherwise. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the smallest [k] with [2^k >= n]. [n] must be positive. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is [a / b] rounded up; [b > 0]. *)

val align_up : int -> int -> int
(** [align_up x a] rounds [x] up to a multiple of the power of two [a]. *)

val extract : int -> lo:int -> width:int -> int
(** [extract v ~lo ~width] extracts the bit field [v[lo .. lo+width-1]]. *)

val insert : int -> lo:int -> width:int -> field:int -> int
(** [insert v ~lo ~width ~field] replaces the bit field [v[lo..lo+width-1]]
    with the low [width] bits of [field]. *)

val lowest_bit : int -> int
(** [lowest_bit w] is the index of the lowest set bit of a non-zero [w]. *)
