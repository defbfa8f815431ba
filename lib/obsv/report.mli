(** Text reports over a span forest — what [jordctl trace] prints — and
    the scaffold {!Freport} shares: percentiles, per-function statistics
    and the phase table.

    Every report leads with a truncation note when the source ring wrapped
    (the analysis covers only the retained suffix), and the breakdown /
    critical-path reports end with the conservation verdict. *)

type fn_stats = {
  fn : string;
  n : int;
  mean_ps : float;
  p50_ps : int;
  p99_ps : int;
  phase_mean_ps : float array;  (** Indexed by the span kind's phase index. *)
  tail_phase_ps : int array;  (** Phase totals over the spans at or above p99. *)
  tail_n : int;  (** How many spans that tail holds. *)
}

val by_fn :
  fn:('a -> string) ->
  e2e:('a -> int) ->
  phases:('a -> int array) ->
  'a list ->
  fn_stats list
(** Group spans of either kind by entry function, sorted by name. *)

val fn_rows : fn_stats list -> (string * float array) list
(** One {!phase_table} row per function: ["fn(count)"] and its phase means. *)

val by_function : Span.result -> fn_stats list
(** Complete roots grouped by entry function, sorted by name. *)

val phase_table :
  Buffer.t -> names:string array -> label:string -> (string * float array) list -> unit
(** One header line (the [label] column, [e2e_us], one column per phase
    name), then one line per [(row name, ps per phase)] with per-phase
    microseconds and shares of the row total. Column widths follow the
    longest phase name. *)

val phase_names : string array
(** {!Span.phase_name} by phase index. *)

val complete_roots : Span.result -> Span.t list

val conservation_ok : Span.result -> bool

val breakdown : Span.result -> string
(** Per-function per-phase attribution table + conservation verdict. *)

val slowest : ?n:int -> Span.result -> string
(** The [n] (default 10) slowest complete roots with their phase splits. *)

val critical_path_means :
  (Span.t * Critical_path.blame) list -> (string * (int * float array)) list
(** Mean critical-path blame per entry function over [(root, blame)]
    pairs: [(fn, (roots, mean ps per phase))], sorted by name. *)

val critical_path : Span.result -> string
(** Mean critical-path blame per entry function, the p99 tail verdict, the
    longest causal chain, and the conservation verdict. *)

val percentile : float -> int array -> int
(** Nearest-rank percentile over a sorted array. *)
