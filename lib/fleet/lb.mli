(** Front-end load-balancing policies.

    The balancer lives on the fleet's shard 0 and decides from its own
    bookkeeping only — per-server outstanding counts (maintained from the
    responses it has seen) and the warm-route table it built itself — never
    from server-shard state, which is what keeps sharded fleet runs
    byte-identical to sequential ones.

    Warm routes hold routable ([Up]) servers only. The caller keeps it so:
    it {!forget}s a server when it leaves [Up]; the fleet does so when a
    member starts draining, and a member returns to [Up] only after a
    cold boot, when a spill opens routes on it anew. *)

type policy =
  | Round_robin  (** Rotate over routable servers. *)
  | Least_outstanding
      (** JBSQ-style: the routable server with the fewest requests in
          flight (lowest id wins ties). *)
  | Affinity
      (** Locality-aware: prefer the least-loaded server already warm for
          the entry (it skips the cold start), spilling to the fleet-wide
          least-outstanding server once every warm candidate has [spill]
          or more requests in flight — cold-start cost traded against
          queueing, the hexabase ADR-003 criterion. *)

val parse : string -> (policy, string) result
(** ["rr"]/["round-robin"], ["lo"]/["least-outstanding"], ["affinity"]. *)

val to_string : policy -> string
val names : string list

type view = {
  n : int;  (** Fleet size; server ids are [0 .. n-1]. *)
  routable : int -> bool;
      (** Up and not draining. Consulted when opening a route; warm routes
          rely on {!forget} instead. *)
  outstanding : int -> int;  (** LB-side in-flight count. *)
  spill : int;  (** Affinity spill threshold (e.g. the slot count). *)
}

type t

val create : policy -> t
val policy : t -> policy

val pick : t -> view -> entry:int -> (int * bool) option
(** Choose a server for a request to [entry], or [None] when no server is
    routable. The flag is [true] when an affinity warm route was used.
    [Affinity] records the chosen server as warm for [entry]. Warm routes
    hold routable servers only (the caller {!forget}s a server when it
    stops being routable), so a warm pick is one allocation-free scan of
    the entry's warm list for the (outstanding, id) minimum. *)

val forget : t -> int -> unit
(** Drop a server from every warm route. Call it when the server stops
    being routable (the fleet does so when a member leaves [Up] to drain):
    {!pick} never re-checks [routable] on a warm route. *)
