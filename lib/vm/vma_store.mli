(** Runtime-selected VMA-table data structure: the plain list (Jord) or the
    B-tree (Jord_BT). Every operation records its memory footprint in the
    store's reusable {!footprint}, so PrivLib and the VTW can charge the
    accesses through {!Jord_arch.Memsys} without a per-operation
    allocation. *)

type impl = Plain of Vma_table.t | Btree of Vma_btree.t
type t

val plain : Va.config -> t
val btree : unit -> t
val impl : t -> impl
val kind : t -> string

val footprint : t -> Footprint.t
(** Addresses read and written by the most recent {!lookup}, {!insert},
    {!remove} or {!update}. The next of those operations overwrites it. *)

val lookup : t -> va:int -> Vte.t option
val find_base : t -> base:int -> Vte.t option
val insert : t -> Vte.t -> unit
val remove : t -> va:int -> Vte.t option

val update : t -> va:int -> unit
(** Record the accesses of an in-place permission update of the entry
    covering [va]. *)

val count : t -> int

val search_instrs : t -> int
(** Straight-line instruction cost of locating an entry: near-zero address
    arithmetic for the plain list; per-level comparisons for the B-tree. *)
