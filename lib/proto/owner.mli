(** The pure-read greedy owner walks over the actor network's current
    pointer state — the data-plane view of its tables: one branch
    ({!lookup_owner}) or up to α ({!walk_owner}).  Each hop is one
    {!Chase.owner_step}, the chase's own ranking. *)

val lookup_owner : Types.t -> from:int -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t option
(** Walk greedily from a router to the target's owner, one
    {!Chase.owner_step} per hop; only the [Some] result allocates. *)

type owner_walk = private {
  w_alpha : int;                (** branches at most *)
  mutable w_owner : Rofl_idspace.Id.t;  (** the verdict, when [w_winner >= 0] *)
  mutable w_winner : int;       (** branch that reached it, -1 when unresolved *)
  mutable w_branches : int;     (** branches seeded, 1 ≤ [w_branches] ≤ [w_alpha] *)
  mutable w_cancelled : int;    (** live siblings the win cancelled *)
  mutable w_wasted_hops : int;  (** ring hops of every branch but the {!charged} one *)
  mutable w_wasted_link_hops : int;  (** link traversals of those hops *)
  w_router : int array;         (** per branch: its router; the winner's hosts the owner *)
  w_hops : int array;           (** per branch: ring hops taken *)
  w_link_hops : int array;      (** per branch: link traversals of those hops *)
  w_latency_ms : float array;   (** per branch: summed shortest-path latency *)
  w_best : Rofl_idspace.Id.t array;  (** per branch: the walk's horizon (scratch) *)
  w_best_d : int array;         (** per branch: its key distance, -1 when cleared (scratch) *)
  w_live : Bytes.t;             (** scratch *)
}
(** The registers of the α-branch owner walk, made once by {!owner_walk} and
    reused for every lookup.  Branch arrays are meaningful below
    [w_branches].  Read them right after {!walk_owner}: the next walk
    overwrites them. *)

val owner_walk : alpha:int -> owner_walk
(** Registers for lookups of up to [alpha] branches.  Raises
    [Invalid_argument] if [alpha < 1]. *)

val walk_owner : Types.t -> owner_walk -> from:int -> target:Rofl_idspace.Id.t -> unit
(** Walk one lookup by up to [w_alpha] greedy branches, overwriting the
    registers: branch 0 from [from], the rest from diversified starts
    (pointer-cache best match toward the target, then successor-list backup
    routers, then predecessor routers, deduplicated).  Each pass steps every
    live branch once, in branch order; the first branch to reach a verdict
    wins and its live siblings are cancelled, so ties resolve to the lowest
    branch index; when every branch dies the lookup is unresolved.  Every
    ring hop is priced by the shortest path between its routers, which only
    warms memoised trees: pure-read, and allocation-free on warm trees.  At
    [alpha = 1] the verdict is {!lookup_owner}'s. *)

val charged : owner_walk -> int
(** The branch the last lookup pays for: the winner, or branch 0 when it
    did not resolve (what the α=1 walk would have done).  Its entries of
    [w_hops], [w_link_hops] and [w_latency_ms] are the lookup's price; every
    other branch's ring and link hops are duplicate work, summed in
    [w_wasted_hops] and [w_wasted_link_hops]. *)
