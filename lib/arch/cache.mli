(** Set-associative cache tag array with LRU replacement.

    Models presence and coherence state only (no data): the simulator charges
    latency from hits/misses and coherence transitions, never from values.
    Per-access callers scan the set once: {!lookup_way} returns the slot,
    which {!state_at} and {!set_state_at} then address directly, and
    {!insert_absent} fills a line already known to be missing. *)

type t

val create : size:int -> ways:int -> line:int -> t
(** [create ~size ~ways ~line]: capacity [size] bytes of [line]-byte lines.
    [size / line] must be divisible by [ways]. *)

val sets : t -> int
val ways : t -> int

val lookup : t -> int -> Mesi.t
(** [lookup t line] is the MESI state if the line is present (and touches
    LRU), [Mesi.Invalid] otherwise. [line] is a line index, not a byte
    address. *)

val lookup_way : t -> int -> int
(** [lookup_way t line] is the slot holding [line] (and touches LRU), or
    [-1] when the line is absent. The slot stays valid until the next
    {!insert}, {!insert_absent}, {!invalidate} or [Invalid] state update of
    the cache. *)

val state_at : t -> int -> Mesi.t
(** State held in a slot returned by {!lookup_way}. *)

val set_state_at : t -> int -> Mesi.t -> unit
(** Update the state held in a slot returned by {!lookup_way}, without
    touching LRU. Setting [Mesi.Invalid] frees the way. *)

val peek : t -> int -> Mesi.t
(** Like {!lookup} but without updating LRU. *)

val set_state : t -> int -> Mesi.t -> unit
(** Update the state of a present line; no-op if absent. Setting
    [Mesi.Invalid] frees the way. *)

val insert : t -> int -> Mesi.t -> int
(** [insert t line state] fills a way, evicting the LRU victim if the set is
    full. Returns the evicted line, or [-1] when nothing was evicted.
    Inserting a line that is already present just updates its state. *)

val insert_absent : t -> int -> Mesi.t -> int
(** {!insert} of a line the caller knows is absent: skips the presence
    scan. Inserting a present line this way would hold it twice. *)

val invalidate : t -> int -> bool
(** [invalidate t line] removes the line; [true] if it was present. *)

val count_valid : t -> int
(** Number of valid lines currently held. *)

val clear : t -> unit
