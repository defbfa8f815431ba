(** Reports over a loaded fleet trace ({!Tracefile.fleet}).

    Fleet spans are flat — one record per request with six exclusive
    phases — so the critical-path question becomes phase *blame*: which
    phase owns the p99 tail, per entry function and per member, and how
    evenly the balancer spread the retained load. All statistics are over
    the retained (tail-sampled) span set; every report's headline says
    how many spans survived out of how many requests. *)

val conservation_ok : Tracefile.fleet -> bool
(** Every retained span satisfies {!Fspan.conservation_ok}. *)

val breakdown : Tracefile.fleet -> string
(** Per-phase latency attribution per entry function, with the
    conservation verdict. *)

val slowest : ?n:int -> Tracefile.fleet -> string
(** The [n] slowest retained completed requests with their phase splits
    (ties broken by request id). *)

val blame : Tracefile.fleet -> string
(** The fleet blame report: per-fn attribution and tail splits, the
    fleet-wide p99 verdict naming the dominant phase ("p99 is X%
    cold_start / Y% member_queue / ..."), the per-member table (top 16 by
    retained load, deterministic order) and the LB-imbalance summary. *)

val chrome_json : Tracefile.fleet -> string
(** Perfetto trace-event document: one process track for the balancer,
    one per member, request/response wire hops drawn as flow arrows. *)

val blame_json : Tracefile.fleet -> string
(** Per-function blame profile (phase means plus tail shares) as JSON. *)

val blame_csv : Tracefile.fleet -> string
(** Flat CSV per (function, phase), same column conventions as the
    single-node {!Export.blame_csv}. *)
