(** Fixed-capacity bit set, used for coherence sharer lists (up to 512
    cores). *)

type t

val create : int -> t
(** [create n] holds members in [\[0, n)]. *)

val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val is_empty : t -> bool
val cardinal : t -> int
val clear : t -> unit

val next_set : t -> int -> int
(** [next_set t i] is the smallest member [>= i], or [-1] when there is
    none. Walking [next_set t 0], [next_set t (m + 1)], ... enumerates the
    members in ascending order without allocating, and stays correct when
    the member just returned is removed before the next step. *)

val iter : (int -> unit) -> t -> unit
(** Members in ascending order. [f] may remove the member it is given. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list
val copy : t -> t
