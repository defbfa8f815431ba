(** Placement of cores and LLC slices on the mesh, and NoC/socket distances.

    Each core owns one tile of the per-socket 2D mesh; each tile also hosts
    one LLC slice (and its directory + VTD slice). Physical addresses are
    interleaved across slices at cache-line granularity. *)

type t

val create : Config.t -> t
val config : t -> Config.t

val cores : t -> int
val socket_of : t -> int -> int
(** Socket hosting a core. Cores are distributed round-robin blocks:
    cores [0 .. per_socket-1] on socket 0, etc. *)

val tile_of : t -> int -> int * int
(** Mesh coordinates of a core within its socket. *)

val hops : t -> int -> int -> int
(** Manhattan hop distance between two cores' tiles. Cores on different
    sockets report the intra-socket distance to their socket edge only; the
    cross-socket link cost is accounted separately (see {!latency_ns}). *)

val latency_ns : t -> src:int -> dst:int -> float
(** One-way message latency between two cores' tiles, including the
    inter-socket link when they live on different sockets. *)

val latency_table : t -> Float.Array.t
(** Every {!latency_ns}, precomputed at {!create}: entry [src * cores + dst].
    Per-access paths index it directly instead of calling {!latency_ns},
    whose float result is boxed across the module boundary. Read-only. *)

val slice_of_line : t -> requester:int -> int -> int
(** Home core/tile (slice index) of a physical byte address. Lines are
    interleaved at cache-line granularity across the tiles of the
    requester's socket (first-touch NUMA placement). *)
