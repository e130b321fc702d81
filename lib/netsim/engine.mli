(** Discrete-event engine: one event partition of the sharded simulator.

    Events are scheduled at absolute simulated times under full keys
    [(time, rail, seq)] and executed in key order, so the execution order
    is a function of the event keys alone.  An engine is polymorphic in its
    event payload ['e]: each queue entry holds one payload and one int
    beside its key, and the single [exec] given at creation runs an entry
    as [exec arg payload].  The payload is plain data, so scheduling one
    builds no closure (the message-driven protocol schedules its messages
    this way, with the destination router as the int).

    {!Shard} runs one engine per shard and relies on {!schedule_keyed}'s
    content-derived keys to keep the merged execution order independent of
    the partitioning. *)

type 'e t

val create : exec:(int -> 'e -> unit) -> 'e t
(** An engine whose entries are run by [exec arg payload], with [arg] the
    int given to {!schedule_keyed}. *)

val now : 'e t -> float
(** Current simulated time in milliseconds. *)

val schedule_keyed : 'e t -> time_ms:float -> rail:int -> seq:int -> arg:int -> 'e -> unit
(** [schedule_keyed t ~time_ms ~rail ~seq ~arg e] schedules [e], to run as
    [exec arg e], under the full event key [(time_ms, rail, seq)]; [time_ms]
    must not be in the past.  Same-time events pop in [(rail, seq)] order
    rather than scheduling order, so two engines holding the same keyed
    events drain identically no matter how the events were routed to them.
    Rails are non-negative (the sharded protocol uses the acting node's
    router id); within one rail, [seq] must be strictly monotone across
    pushes.  [arg] takes no part in the order. *)

val run_until : 'e t -> float -> unit
(** Execute events with time <= the horizon; pending later events remain.
    The clock advances to at least the horizon. *)

val run_before : 'e t -> float -> unit
(** Execute events with time strictly before the horizon; the clock stays
    at the last executed event.  The first half of a {!Shard} window, which
    then delivers messages landing exactly on the barrier before running
    that instant with {!run_until}. *)

val pending : 'e t -> int
(** In-flight events: scheduled but not yet executed. *)

val next_time_into : 'e t -> float array -> bool
(** [next_time_into t reg] lowers [reg.(0)] to the timestamp of the earliest
    pending event and returns [true], or returns [false] on an empty queue —
    what a shard coordinator needs to pick the next conservative window.  A
    register instead of an option: the per-window fold allocates nothing. *)

val executed_total : 'e t -> int
(** Cumulative number of events executed. *)

val digest : 'e t -> int
(** Order-insensitive fingerprint over the keys of every executed event: the
    sum of per-event hashes of [(time, rail, seq)].  Two runs executed the
    same multiset of event keys iff their digests agree, and per-engine
    digests sum across shards into a partition-independent fingerprint. *)
