(** End-to-end memory-access latency engine.

    Combines per-core L1D tag arrays, the distributed directory/LLC and the
    NoC into a functional MESI model: every access updates coherence state
    and returns its latency in nanoseconds. Only protocol-relevant accesses
    are driven through this engine (VMA-table entries, request-queue slots,
    free-list heads, ArgBuf lines); plain function execution is charged as
    opaque compute time by the workload model.

    The coherence directory is part of this module. One logical directory
    is distributed across LLC slices, homed by {!Topology.slice_of_line} at
    a line's first touch. Per line it records the sharers (cores whose L1
    holds the line), the M/E owner, the home slice and LLC presence, which
    tells LLC hits from cold DRAM fetches. It is index-addressed: a
    linear-probing table maps a line to a dense entry index, and the
    entry's fields are one run of a flat [int] array. Entries are never
    removed. *)

type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;  (** Cache-to-cache transfers from a remote owner. *)
  mutable upgrades : int;  (** S->M upgrades requiring invalidations. *)
  mutable invalidations : int;  (** Remote L1 lines invalidated. *)
}

type t

val create : Topology.t -> t

val topology : t -> Topology.t
val config : t -> Config.t
val stats : t -> stats

val read : t -> core:int -> addr:int -> float
(** Latency (ns) of a load by [core] from byte address [addr]. *)

val write : t -> core:int -> addr:int -> float
(** Latency (ns) of a store (read-for-ownership on miss, upgrade on shared
    hit). *)

val atomic : t -> core:int -> addr:int -> float
(** Atomic read-modify-write: a write plus the serialization cost of the
    locked operation. *)

val read_block : t -> core:int -> addr:int -> bytes:int -> float
(** Latency of streaming [bytes] starting at [addr]: per-line accesses with
    overlapped misses (memory-level parallelism models all but the first
    line at a fraction of full latency). *)

val register_metrics :
  t -> ?labels:(string * string) list -> Jord_telemetry.Registry.t -> unit
(** Register the MESI/cache traffic counters ([jord_mem_*] families) as
    pull collectors over {!stats}; [labels] (e.g. a server id) are
    prepended to every instance. Zero hot-path cost. *)

val sharers : t -> addr:int -> Jord_util.Bitset.t
(** Cores whose L1 holds the address' line — the directory's view, used by
    the VTD when it must fall back on the coherence directory (victim-cache
    behaviour, paper §4.2). The result is a copy in a scratch set owned by
    [t] (empty for an untouched line): later accesses leave it unchanged,
    and the next [sharers] call overwrites it. *)

val dir_entries : t -> int
(** Lines the directory tracks: every line ever touched. *)

val home_of : t -> addr:int -> requester:int -> int
(** LLC slice homing the address' line; assigned by first touch within the
    requester's socket when not yet known. *)

val check_invariants : t -> string list
(** Coherence violations, empty when the state is consistent: every valid
    L1 line has a directory entry naming its core as a sharer; a core
    holding a line in M/E is its owner; an owner holds its line in M/E; at
    most one core holds a line in M/E. Cold: walks the whole directory. *)
