(** Deterministic tail-based sampler over fleet spans.

    Retention is a pure function of request ids, never of wall order:
    always-keep rules (the caller tags shed/failed/cold/SLO-violating
    spans, the rollup pins window exemplars) plus a seeded bottom-k
    head-sample — the [reservoir] ids with the smallest SplitMix64 hash of
    (seed, req_id) survive. Offering the same id set in any order yields
    the same retained set, which is what makes fleet trace files
    byte-identical at any [--shards] count. *)

type t

val default_reservoir : int

val create : ?seed:int -> ?reservoir:int -> unit -> t
(** [reservoir] bounds the head-sample only; rule-kept spans are always
    retained on top of it. [reservoir = 0] keeps rule-kept spans only. *)

val seed : t -> int
val reservoir : t -> int

val offer : t -> ?keep:string -> Fspan.t -> unit
(** Offer one finished span, at most once per request id. [keep] names an
    always-keep rule ("shed", "cold-start", "slo", ...); without it the
    span competes for a head-sample slot. *)

val pin : t -> reason:string -> Fspan.t -> unit
(** Force-retain a span after it was offered (rollup window exemplars).
    The first reason for an id wins; pinning is idempotent. *)

val offered : t -> int
(** Spans offered so far (the run's decided-request count). *)

val retained : t -> (string * Fspan.t) list
(** The final retained set as [(keep_reason, span)], sorted by request id
    — the canonical order fleet trace files are written in. *)
