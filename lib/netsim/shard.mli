(** Sharded discrete-event coordinator: conservative time windows.

    Partitions a simulation across K {!Engine} instances and runs them on a
    {!Rofl_util.Pool} in lock-step windows.  The caller supplies
    [window_ms], a positive lower bound on the latency of any message that
    crosses the partition (for the ROFL simulator: the minimum latency over
    links between routers owned by different shards).  Each window executes
    every shard up to a barrier [b <= earliest_pending + window_ms], then
    flushes cross-shard messages buffered during the window — conservatism
    guarantees each lands at or after [b], never in another shard's past.
    A window runs its events strictly before [b] first, then the instant
    [b] itself after the flush, so a message landing exactly on [b] runs
    in key order among [b]'s other events, as on one shard.

    Runs are byte-identical at any shard count: events carry content-derived
    keys [(time, rail, seq)] (see {!Engine.schedule_keyed}) so each engine's
    pop order is a function of the event set alone, and observables — the
    monitor and the global queue-depth high-water mark — are sampled only at
    K-independent instants (global-event times and run horizons), never at
    the K-dependent interior barriers.

    Like {!Engine}, a coordinator is polymorphic in its event payload ['e]:
    every engine under it runs its entries through the one [exec] given at
    creation.  Cross-shard messages wait for the barrier in per-shard
    outboxes kept as flat columns (destination, key, int, payload), flushed
    in emission order with their payload slots vacated, so a buffered
    message costs no allocation and a delivered one stays reachable from
    nothing here. *)

type 'e t

val create :
  ?pool:Rofl_util.Pool.t -> exec:(int -> 'e -> unit) -> shards:int -> window_ms:float ->
  unit -> 'e t
(** [create ?pool ~exec ~shards ~window_ms ()] builds a coordinator over
    [shards] engines, each built by {!Engine.create} [~exec].  [window_ms]
    must be positive when [shards > 1] ([infinity] is the natural value for
    a single shard, where no message ever crosses).  Without a [pool] (or
    with a 1-job pool) windows run sequentially — same results, no
    parallelism. *)

val engine : 'e t -> int -> 'e Engine.t
(** The engine owning partition [i].  During a window, partition [i]'s
    events run on one pool domain and must touch only shard-[i] state;
    outside [run_until] the caller may inspect engines freely. *)

val now : 'e t -> float
(** The merged barrier clock: every shard has executed all events at or
    before this time, and no cross-shard message is in flight. *)

val send :
  'e t -> src:int -> dst:int -> time_ms:float -> rail:int -> seq:int -> arg:int ->
  'e -> unit
(** [send t ~src ~dst ~time_ms ~rail ~seq ~arg e] schedules [e] with int
    [arg] on shard [dst]'s engine under key [(time_ms, rail, seq)]
    ({!Engine.schedule_keyed}).  [src] is the shard whose
    window the call is made from, or [-1] from global context (inside an
    {!at_global} closure, or outside [run_until] entirely).  Cross-shard
    sends ([src >= 0], [src <> dst]) are buffered in shard [src]'s outbox
    until the barrier; the caller must guarantee [time_ms] is at least
    [window_ms] after the emitting event — true by construction when
    [window_ms] lower-bounds cross-partition latency. *)

val at_global :
  'e t -> time_ms:float -> (unit -> unit) -> unit
(** Schedule a closure at an exact simulated time in {e global} context:
    every shard is parked at a barrier at [time_ms] when it runs, so it may
    read and mutate state across all shards and [send] with [src:-1].
    Globals at one time fire in insertion order.  Global times are sync
    points — the monitor observes after the last global at each time.  A
    global rescheduling itself must pick a strictly later time. *)

val run_until : 'e t -> float -> unit
(** Execute all events and globals with time <= the horizon.  The merged
    clock advances to at least the horizon, and the monitor observes the
    horizon boundary even when nothing fired, so checkpoint audits keep
    seeing time pass across quiescent stretches. *)

val pending : 'e t -> int
(** Total in-flight events across all shards. *)

val peak_global : 'e t -> int
(** High-water mark of total pending events, sampled at sync points only —
    K-independent, so campaign reports read it. *)

val executed_total : 'e t -> int

val fingerprint : 'e t -> int
(** Sum of per-engine executed-event digests ({!Engine.digest}): an
    order-insensitive fingerprint of every executed event key, identical
    across shard counts iff the runs executed the same events. *)

val set_monitor : 'e t -> (float -> unit) -> unit
(** Coordinator-level observer, invoked with the merged barrier clock at
    sync points (global-event times and run horizons); the ring doctor
    attaches here.  The observer runs outside the event queues, so it
    shifts no event key; it must not schedule events, raise, or mutate
    simulation state.  A per-engine observer would fire at K-dependent
    interior barriers and race with other shards' domains. *)

val clear_monitor : 'e t -> unit

type stats = {
  windows : int;        (* synchronisation windows executed *)
  executed : int array; (* events executed, per shard *)
  busy_s : float array; (* wall-clock seconds each shard spent executing *)
  stall_s : float;      (* summed seconds shards idled at window barriers *)
  elapsed_s : float;    (* wall-clock seconds spent inside [run_until] *)
}
(** Wall-clock execution profile.  K-dependent by nature — report it beside
    results, never inside them. *)

val stats : 'e t -> stats
(** Kept for perfbench and the bench shards rows, which report it. *)
