(** Binary min-heap keyed by float priority.

    The event queue of the discrete-event engine and of the shard
    coordinator's global events.  Ties are broken by insertion order (or by
    caller-supplied keys), so iteration is deterministic.  Parallel columns
    (unboxed priorities, rails, sequence numbers, int arguments, payloads):
    a push, and a pop through {!min_prio_into}, {!min_rail}, {!min_seq},
    {!min_arg} and {!take}, allocate nothing. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h prio v] inserts [v] with priority [prio].  Ties among plain
    pushes pop in insertion order (an internal counter on the heap's
    tie-break rail [-1]), with [arg] 0. *)

val push_keyed : 'a t -> float -> rail:int -> seq:int -> arg:int -> 'a -> unit
(** [push_keyed h prio ~rail ~seq ~arg v] inserts [v] under the full key
    [(prio, rail, seq)], with the int [arg] stored beside it ({!min_arg}
    reads it back): the event engine's destination router, kept in a
    column so a typed payload needs no wrapper.  Entries pop in lexicographic key order, so two
    heaps holding the same keyed entries drain identically no matter which
    heap each entry was pushed through or in what order — the foundation of
    the sharded engine's byte-identical merges.  Callers own the key
    discipline: within one [rail], [seq] must be strictly monotone.  Rails
    are non-negative by convention; plain {!push} uses rail [-1], so plain
    entries at a timestamp drain before keyed ones. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element (FIFO among ties).
    The vacated slot is cleared, so a popped element becomes unreachable
    through the heap as soon as the caller drops it — draining the simulator
    event queue cannot retain event closures between campaign phases.
    Exported for tests: test_util's heap model and test_linkstate's reference
    Dijkstra pop through it. *)

val min_prio_into : 'a t -> float array -> int -> unit
(** [min_prio_into h reg i] writes the minimum priority into [reg.(i)] (a
    float returned across modules would be boxed).  Not on an empty heap;
    nor are the next three. *)

val min_rail : 'a t -> int

val min_seq : 'a t -> int

val min_arg : 'a t -> int

val take : 'a t -> 'a
(** {!pop} without the option: remove the minimum entry, clear its slot and
    return its payload.  Raises [Invalid_argument] on an empty heap. *)
