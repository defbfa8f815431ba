(** B-tree VMA table — the Jord_BT ablation (paper §6.2, Figure 13).

    Keyed by VMA base address, CLRS-style B-tree of minimum degree 8, as in
    Midgard/redundant-memory-mapping designs. Unlike the plain list, every
    operation walks root-to-leaf (multiple dependent cache accesses) and
    inserts/deletes trigger node splits, borrows and merges — the
    "frequent B-tree rebalancing" the paper blames for Jord_BT spending 167%
    more PrivLib time. Operations record the node addresses they touch
    (reads) and modify (writes) in a {!Footprint.t}, in access order, for
    latency charging; every operation first clears the footprint it is
    given. *)

type t

val create : unit -> t

val lookup : t -> Footprint.t -> va:int -> Vte.t option
(** Floor search: the entry with the greatest base [<= va] that covers
    [va]. *)

val find_base : t -> base:int -> Vte.t option
(** Exact-key search without charging. *)

val insert : t -> Footprint.t -> Vte.t -> unit
(** @raise Invalid_argument on duplicate base. *)

val remove : t -> Footprint.t -> va:int -> Vte.t option
(** Delete the entry covering [va]. *)

val touch : t -> Footprint.t -> va:int -> unit
(** Footprint of an in-place VTE update: the lookup path plus one leaf
    write. *)

val count : t -> int
val height : t -> int

val rebalance_ops : t -> int
(** Cumulative splits + merges + borrows since creation. *)

val check_invariants : t -> (unit, string) result
(** Structural validation (key ordering, occupancy bounds, uniform leaf
    depth) for property tests. *)
