(** In-memory span recorder for the traced run.

    Spans are taken by the benchmark around its own calls into the
    simulator's layers; nothing inside the program is instrumented. They
    stay in memory and are written out once, when the run ends. *)

type t

val create : unit -> t

val start : t option -> ?parent:int -> string -> int
(** Open a span and return its id; [-1] (and no work) without a recorder. *)

val stop : t option -> int -> (string * float) list -> unit
(** Close a span, attaching attributes such as layer-counter deltas. *)

val count : t -> int

val write : t -> path:string -> unit
(** One JSON object per line: id, parent, name, start and duration in host
    seconds from the recorder's creation, then the attributes. *)
