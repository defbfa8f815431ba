(** Minimal JSON emission and parsing for trace and telemetry export.
    The parser exists so the exporters' round-trip tests (and downstream
    tooling smoke checks) can consume exactly what we emit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control characters). *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse one JSON value (full grammar; numbers without '.', exponent and
    within [int] range parse as [Int], the rest as [Float]). Trailing
    non-whitespace is an error. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — field lookup; [None] on non-objects. *)

val int_member : ?default:int -> string -> t -> int
val str_member : ?default:string -> string -> t -> string
(** Typed field lookups: [default] (0 / [""]) when the field is absent or
    holds another type. *)
