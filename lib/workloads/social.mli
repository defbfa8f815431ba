(** Social Network from DeathStarBench, ported to Jord (paper §5, Table 3).

    Entry functions: Follow (F) — a sequential graph-update chain — and
    ComposePost (CP), whose text processing carries the heavy tail (one
    function runs for ~75 us, the long tail of Fig. 10). The heaviest
    workload: ~0.9 MRPS under SLO on 32 cores. *)

val app : Jord_faas.Model.app

val follow : string
val compose_post : string
