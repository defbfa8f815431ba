(** VMA size classes.

    Following the paper (§4.1), size classes are the powers of two from
    128 bytes to 4 GB — 26 classes — and every VMA allocation is rounded up
    to its class so that free memory can be managed with plain per-class
    free lists (no coalescing, no trees). *)

type t = private int
(** Class id in [\[0, count)]: class 0 is 128 B, class 25 is 4 GB. *)

val count : int
(** 26. *)

val of_index : int -> t
(** @raise Invalid_argument outside [\[0, count)]. *)

val to_index : t -> int

val bytes : t -> int
(** Chunk size of the class. *)

val of_size : int -> t
(** [of_size n] is the smallest class whose chunk holds [n] bytes.
    @raise Invalid_argument if [n <= 0] or [n > max_bytes]. *)

val offset_bits : t -> int
(** log2 of {!bytes} — the width of the VA offset field for this class. *)

val pp : Format.formatter -> t -> unit
