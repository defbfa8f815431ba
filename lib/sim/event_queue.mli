(** Priority queue of timestamped events: an indexed binary min-heap with
    cancellable, reschedulable handles.

    Ties are broken by insertion order so the simulation is deterministic:
    two events scheduled for the same instant fire in the order they were
    scheduled, and the pop sequence depends only on the push sequence, never
    on the heap's internal shape. {!push_ranked} is the one exception: it
    places an event ahead of every ordinary event at its instant.

    The heap is a structure of parallel [int] arrays, so a push performs no
    heap allocation once the backing arrays are warm — the engine's
    dispatch-heavy hot loop runs allocation-free when callers reuse their
    event closures (see [bench/engine_bench.ml]). *)

type 'a t

type handle = int
(** Names one pending event. A handle goes stale as soon as its event pops,
    is cancelled, or the queue is cleared; stale handles are recognized (via
    a per-slot generation) and rejected, never confused with a recycled
    slot. *)

val none_handle : handle
(** A handle that no live event ever has; [cancel]/[reschedule] on it return
    [false]. Useful as an initializer. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:Time.t -> 'a -> handle
(** Schedule a payload; the handle can later [cancel] or [reschedule] it. *)

val push_ranked : 'a t -> time:Time.t -> rank:int -> 'a -> handle
(** Schedule a payload ahead of every ordinary event at the same instant.
    Among ranked events at one instant, lower [rank] fires first. A ranked
    push does not advance the insertion counter, so it leaves the relative
    order of ordinary events untouched. This is how a stream that produces
    its events one at a time (the fleet's arrival stream, which reschedules
    itself) fires in exactly the order it would have had if every event
    had been pushed up front, before anything else: pass the event's index
    in the stream as [rank]. A {!reschedule} turns a ranked event into an
    ordinary one.
    @raise Invalid_argument if [rank < 0]. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest event. *)

val min_time_exn : 'a t -> Time.t
(** Timestamp of the earliest event.
    @raise Invalid_argument when empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop: returns the payload alone (read {!min_time_exn}
    first if the timestamp is needed).
    @raise Invalid_argument when empty. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val holds : 'a t -> handle -> bool
(** Is this handle's event still pending? *)

val cancel : 'a t -> handle -> bool
(** Remove a pending event in O(log n). [false] if the handle is stale
    (already popped, cancelled, or cleared). *)

val reschedule : 'a t -> handle -> time:Time.t -> bool
(** Move a pending event to a new time in O(log n), keeping the handle
    valid. The event is re-sequenced: among events at the new timestamp it
    fires last, exactly as if it had been pushed at the reschedule point.
    [false] if the handle is stale. *)

val clear : 'a t -> unit
(** Drop every pending event (their handles all go stale). *)

val invariants_ok : 'a t -> bool
(** Internal consistency check (heap order, index maps); for tests. *)
