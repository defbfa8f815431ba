(** Virtual lookaside buffer — a fully associative range TLB over VMAs
    (paper §4.1). Each core has an I-VLB and a D-VLB; entries are tagged
    with the backing VTE address so that T-bit coherence messages (VTD
    shootdowns) can invalidate them by tag match. Entries live in parallel
    tag, VTE and LRU arrays, so neither a lookup nor a walk fill
    allocates. VTE addresses are non-negative. *)

type t

type stats = { mutable hits : int; mutable misses : int; mutable shootdowns : int }

val create : entries:int -> t
val capacity : t -> int
val stats : t -> stats

val lookup : t -> va:int -> int
(** Range match on \[base, base+bytes): the slot of the matching entry, or
    [-1] on a miss. A hit refreshes LRU. *)

val vte : t -> int -> Vte.t
(** The translation held in a slot returned by {!lookup}. *)

val fill : t -> vte_addr:int -> Vte.t -> unit
(** Install a translation after a walk, evicting the LRU entry if full.
    Refilling an already-resident VTE refreshes it in place. *)

val invalidate_vte : t -> vte_addr:int -> bool
(** Tag-matched invalidation from a coherence message; [true] if an entry
    was dropped. *)

val invalidate_all : t -> unit
val resident : t -> int list
(** VTE addresses currently cached. *)

val occupancy : t -> int
