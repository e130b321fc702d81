(** Fixed-size domain pool for coarse-grained fan-out.

    The experiment engine runs its independent (ISP × grid-point) work items
    across OCaml 5 domains.  The pool is deliberately simple: one shared task
    queue, [jobs - 1] worker domains parked on a condition variable, and a
    caller that drains the queue alongside the workers, so [jobs = 1] is the
    plain sequential [List.map] with no domain ever spawned.

    Determinism contract: {!map} preserves input order in its result list and
    tasks must not share mutable state (each experiment task derives its own
    {!Prng.t} from a fixed seed), so results are byte-identical to a
    sequential run regardless of [jobs]. *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool that runs at most [jobs] tasks concurrently
    (clamped to at least 1).  Worker domains are spawned lazily on the first
    parallel {!map}. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], running up to
    [jobs t] applications concurrently, and returns the results in input
    order.  If any application raises, the first exception (in completion
    order) is re-raised in the caller with its backtrace after all tasks
    have finished.  Nested calls from inside a task degrade to sequential
    [List.map] rather than deadlocking the pool. *)

val shutdown : t -> unit
(** Park and join the worker domains.  The pool may not be used afterwards.
    Idempotent. *)

val worker_minor_words : unit -> int
(** Cumulative minor-heap words allocated by tasks executed on worker
    domains, across every pool in the process.  OCaml 5 GC counters are
    per-domain, so a caller measuring its own [Gc.quick_stat] delta must add
    the delta of this counter to see the allocations the workers absorbed
    (caller-drained tasks are already in the caller's own stats).

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

val worker_major_words : unit -> int
(** Same accounting for words promoted/allocated on the major heap.

    Kept for the bench: bench/main.ml's per-target GC accounting reads it. *)
