(** Plain-list VMA table (the paper's key data structure, §4.1).

    Because a VA encodes its own size class and index, the table entry
    position is computed — never searched. Every operation therefore touches
    exactly one VTE cache block, which is what makes VMA operations
    nanosecond-scale. The model stores entries the same way: an array
    indexed by VTE slot, grown by doubling to the highest slot inserted, so
    no operation hashes or allocates beyond the entry it inserts.
    Operations record the byte addresses they touched in
    a {!Footprint.t} so the caller can charge them through the memory
    model; every operation first clears the footprint it is given. *)

type t

val create : Va.config -> t
val config : t -> Va.config

val lookup : t -> Footprint.t -> va:int -> Vte.t option
(** Find the entry covering [va] (bound-checked), recording a read of the
    single VTE block computed from the VA. Non-Jord VAs touch nothing and
    return [None]. *)

val find_base : t -> base:int -> Vte.t option
(** Entry whose base VA is exactly [base], without charging. *)

val insert : t -> Footprint.t -> Vte.t -> unit
(** Install an entry at the slot implied by its base VA, recording the
    write of its block.
    @raise Invalid_argument if the slot is occupied or the base is not a
    Jord VA. *)

val remove : t -> Footprint.t -> va:int -> Vte.t option
(** Delete the entry covering [va], recording the write of its block. *)

val touch : t -> Footprint.t -> va:int -> unit
(** Record the write of an in-place VTE update (permission change). *)

val count : t -> int
