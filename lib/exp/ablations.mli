(** Design-choice ablations beyond the paper's figures.

    The paper declares the dispatch-policy study out of scope (§3.3) and
    asserts its deadlock-avoidance and orchestrator-grouping choices without
    sweeping them; these benches back those choices with data:

    - dispatch policy: JBSQ vs random vs round-robin at fixed load;
    - orchestrator count on the 32-core machine;
    - JBSQ queue bound;
    - internal-queue priority on vs off (deadlock-avoidance rule);
    - VTE sub-array size (the 20-sharers overflow step, paper 4.3);
    - VTD capacity pressure (directory-victim fallback, paper 4.2). *)

type row = { label : string; tput_mrps : float; p99_us : float; mean_us : float }

val sub_array_overflow : unit -> (int * float) list
(** (sharer PDs, warm translate ns) — the cost step past the 20-entry VTE
    sub-array (overflow-pointer chase). *)

val vtd_fallback : sets:int -> live_vtes:int -> float
(** Share of shootdowns that lost VTD tracking for the given geometry and
    VTE working set (the coherence directory absorbs them, paper §4.2). *)

val internal_priority : ?quick:bool -> unit -> row list
val report : ?quick:bool -> unit -> string
