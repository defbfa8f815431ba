(** Set-associative cache tag array with LRU replacement.

    Models presence and coherence state only (no data): the simulator charges
    latency from hits/misses and coherence transitions, never from values. *)

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

val peek : t -> int -> Mesi.t
(** Like {!lookup} but without updating LRU. *)

val set_state : t -> int -> Mesi.t -> unit
(** Update the state of a present line; no-op if absent. Setting
    [Mesi.Invalid] frees the way. *)

val insert : t -> int -> Mesi.t -> int
(** [insert t line state] fills a way, evicting the LRU victim if the set is
    full. Returns the evicted line, or [-1] when nothing was evicted.
    Inserting a line that is already present just updates its state. *)

val invalidate : t -> int -> bool
(** [invalidate t line] removes the line; [true] if it was present. *)

val count_valid : t -> int
(** Number of valid lines currently held. *)

val clear : t -> unit
