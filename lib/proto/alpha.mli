(** α-parallel register file for the batched owner walk.

    Stage lookups, {!run} them, read the verdicts through the accessors,
    {!clear}, repeat — the registers persist across rounds, so steady-state
    callers (the service directory's publish and resolve paths, the bench
    hot loop) allocate nothing per round beyond the walk's shortest-path
    pricing.  Every staged lookup is walked by {!Proto.walk_owner}: up to α
    greedy branches with first-success semantics.  Branch 0 starts at the
    staged origin, extra branches start from diversified pointers
    (pointer-cache entry closest to the target, successor-list backups,
    predecessor).  The first branch to reach the owner wins; live siblings
    are cancelled and their hops land in the duplicate-work ledger.

    Determinism: the walk is pure-read, so a lookup's results depend on the
    table state alone — not on its position in the batch or on the lookups
    staged around it — and are byte-identical at any [--jobs]/[--shards]. *)

type t

val create : ?hint:int -> ?alpha:int -> Proto.t -> t
(** [create ?hint ?alpha proto] sizes the file for about [hint] lookups
    (default 16, growing by doubling) of [alpha] branches each (default 1,
    whose verdicts are exactly {!Proto.lookup_owner}'s).  Raises
    [Invalid_argument] if [alpha < 1]. *)

val clear : t -> unit
(** Forget staged lookups; registers and ledgers are retained. *)

val stage : t -> from:int -> target:Rofl_idspace.Id.t -> int
(** Stage one lookup; the returned index reads back its results after
    {!run}. *)

val length : t -> int

val run : t -> unit
(** Resolve the staged lookups one after another through one set of branch
    registers.  Allocation-free on the walk path; results persist until the
    next [run] or {!clear}. *)

val resolved : t -> int -> bool

val owner_id : t -> int -> Rofl_idspace.Id.t
(** Raises [Invalid_argument] when the lookup did not resolve. *)

val owner_router : t -> int -> int
(** Hosting router of the owner, [-1] when unresolved. *)

val winner_branch : t -> int -> int
(** Which branch reached the owner first ([-1] when unresolved). *)

val branches : t -> int -> int
(** Branches actually seeded for this lookup (1 ≤ branches ≤ α — fewer
    when the origin's tables offer no diversified start pointers). *)

val ring_hops : t -> int -> int
(** Ring hops taken by the winning branch (branch 0 when unresolved). *)

val wasted_hops : t -> int -> int
(** Ring hops burned by this lookup's losing branches — the
    duplicate-work price of redundancy, disjoint from {!ring_hops}. *)

val wasted_link_hops : t -> int -> int
(** Link traversals burned by the losing branches — what message
    accounting should charge on top of {!link_hops}. *)

val link_hops : t -> int -> int
(** Physical link traversals under the winning branch (each ring hop priced
    by the link-state shortest path). *)

val latency_ms : t -> int -> float
(** Summed shortest-path latency of the winning branch's ring hops. *)

val cancellations : t -> int
(** Cooperative cancellations issued during the last [run]. *)

val total_cancellations : t -> int
(** Cumulative across the file's lifetime. *)

val total_wasted_hops : t -> int
(** Cumulative losing-branch ring hops across the file's lifetime. *)
