(** Coherence directory: per-line owner and sharer tracking.

    One logical directory is distributed across LLC slices; homing is decided
    by {!Topology.slice_of_line}, so this module only stores the global
    line -> sharers map. It also records LLC presence ([in_llc]) so the
    memory system can distinguish LLC hits from cold DRAM fetches. *)

type entry = {
  sharers : Jord_util.Bitset.t;  (** Cores whose L1 may hold the line. *)
  mutable owner : int;  (** Core holding M/E, or -1. *)
  mutable in_llc : bool;
  home : int;  (** LLC slice homing the line (fixed at first touch). *)
}

type t

val create : cores:int -> t
val find : t -> int -> entry
(** @raise Not_found when the line has no entry. *)

val add : t -> int -> home:int -> entry
(** Create the entry of a line that has none; [home] is its first-touch
    NUMA placement. *)

val set_owner : t -> int -> int -> unit
(** [set_owner t line core] records [core] as the line's M/E holder; no-op
    for a line without an entry. *)

val drop_core : t -> int -> int -> unit
(** [drop_core t line core] removes a core from the line's sharers (L1
    eviction/invalidation notification). *)

val entries : t -> int
val clear : t -> unit
