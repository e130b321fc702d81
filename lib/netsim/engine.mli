(** Discrete-event engine.

    Drives the latency experiments (join completion time, Fig. 5c) and any
    scenario where relative timing matters: events are scheduled at absolute
    simulated times; [run] executes them in time order.  Ties run in
    scheduling order, so executions are deterministic.

    An engine is polymorphic in its event payload ['e].  Each queue entry
    holds one payload and one int beside its key, and a single [exec],
    given at creation, runs an entry as [exec arg payload].  {!create}
    builds the closure engine ([(unit -> unit) t], [exec = fun _ f -> f ()])
    that tests, the bench and the examples drive; {!create_typed} builds an
    engine whose payload is plain data, so scheduling one builds no closure
    (the message-driven protocol schedules its messages this way, with the
    destination router as the int).

    One engine is one event partition.  A single-partition simulation uses it
    directly; the sharded simulator runs one engine per shard under
    {!Shard}, which relies on {!schedule_keyed}'s content-derived event keys
    to keep the merged execution order independent of the partitioning. *)

type 'e t

val create : unit -> (unit -> unit) t
(** A closure engine: each event is a [unit -> unit] called when it pops. *)

val create_typed : exec:(int -> 'e -> unit) -> 'e t
(** An engine whose entries are run by [exec arg payload], with [arg] the
    int given to {!schedule_keyed}. *)

val now : 'e t -> float
(** Current simulated time in milliseconds. *)

val schedule : (unit -> unit) t -> delay_ms:float -> (unit -> unit) -> unit
(** Schedule a closure [delay_ms] after the current time (>= 0).

    Same-timestamp events pop in FIFO scheduling order — including events
    scheduled from inside a running callback at the current time, which run
    after every already-queued event with that timestamp.  Simulations may
    rely on this: a message fan-out scheduled in one pass is processed in
    emission order. *)

val schedule_at : (unit -> unit) t -> time_ms:float -> (unit -> unit) -> unit
(** Schedule at an absolute time (must not be in the past).

    Kept for examples/mobility.ml, which reads it. *)

val schedule_keyed : 'e t -> time_ms:float -> rail:int -> seq:int -> arg:int -> 'e -> unit
(** [schedule_keyed t ~time_ms ~rail ~seq ~arg e] schedules [e], to run as
    [exec arg e], under the full event key [(time_ms, rail, seq)].  Same-time
    events pop in [(rail, seq)] order rather than scheduling order, so the
    execution order is a function of the event keys alone — two engines
    holding the same keyed events drain identically no matter how the events
    were routed to them.  Rails are non-negative (the sharded protocol uses
    the acting node's router id); plain {!schedule} events sit on rail [-1]
    and drain first among ties.  Within one rail, [seq] must be strictly
    monotone across pushes.  [arg] takes no part in the order. *)

val run : 'e t -> unit
(** Execute events until the queue drains. *)

val run_until : 'e t -> float -> unit
(** Execute events with time <= the horizon; pending later events remain.
    The clock advances to at least the horizon, and the monitor (if any)
    observes the boundary even when no event fired — so checkpoint audits
    keep seeing time pass across quiescent stretches. *)

val run_before : 'e t -> float -> unit
(** Execute events with time strictly before the horizon.  The clock stays
    at the last executed event and the monitor sees no boundary: the first
    half of a {!Shard} window, which then delivers messages landing exactly
    on the barrier before running that instant with {!run_until}. *)

val pending : 'e t -> int
(** In-flight events: scheduled but not yet executed. *)

val next_time_into : 'e t -> float array -> bool
(** [next_time_into t reg] lowers [reg.(0)] to the timestamp of the earliest
    pending event and returns [true], or returns [false] on an empty queue —
    what a shard coordinator needs to pick the next conservative window.  A
    register instead of an option: the per-window fold allocates nothing. *)

val peak_pending : 'e t -> int
(** High-water mark of the event queue over the engine's lifetime — the
    overload signal a churn campaign watches (a queue that only grows means
    stabilisation is falling behind the event rate).  Not reset by
    {!clear}; see {!reset}. *)

val scheduled_total : 'e t -> int
(** Cumulative number of events ever scheduled (executed or pending).
    Not reset by {!clear}; see {!reset}. *)

val executed_total : 'e t -> int
(** Cumulative number of events executed. *)

val digest : 'e t -> int
(** Order-insensitive fingerprint over the keys of every executed event: the
    sum of per-event hashes of [(time, rail, seq)].  Two runs executed the
    same multiset of event keys iff their digests agree, and per-engine
    digests sum across shards into a partition-independent fingerprint. *)

val clear : 'e t -> unit
(** Drop queued events.  Statistics ({!peak_pending}, {!scheduled_total},
    {!executed_total}, {!digest}), the clock and the monitor survive — this
    truncates the future, not the record of the past. *)

val reset : 'e t -> unit
(** Return the engine to its freshly-{!create}d state: queued events
    dropped, clock back to 0, peak/scheduled/executed counters and the
    digest zeroed, monitor detached.  Reusing an engine across campaign
    phases without [reset] leaks the previous phase's statistics into the
    next report. *)

val set_monitor : 'e t -> (float -> unit) -> unit
(** Install an observer invoked after every executed event with the current
    simulated time — the ring doctor's checkpoint hook.  The observer runs
    {e outside} the event queue: monitoring via scheduled events would shift
    the FIFO tie-breaking sequence numbers and perturb every same-timestamp
    ordering, breaking byte-identical determinism.  The observer must not
    schedule events, raise, or mutate simulation state; at most one is
    active (a second call replaces the first). *)

val clear_monitor : 'e t -> unit
