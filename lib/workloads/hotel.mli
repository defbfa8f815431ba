(** Hotel Reservation from DeathStarBench, ported to Jord (paper §5,
    Table 3).

    Entry functions: SearchNearby (SN) — a geo/rate fan-out joined before a
    profile lookup — and MakeReservation (MR) — a sequential user/DB chain.
    Mid-weight functions, ~3 nested invocations per request; lands around
    7 MRPS under SLO on the 32-core machine. *)

val app : Jord_faas.Model.app

val search_nearby : string
val make_reservation : string
