(** Struct-of-arrays resident storage for the protocol engine.

    One slot per resident identifier, every field a column in a flat array:
    ring pointers, a bounded inline successor list, liveness bookkeeping.  A
    resident costs tens of bytes (no per-record boxing, no list spines) so a
    million-host campaign fits comfortably in memory, and the GC traverses a
    fixed set of arrays instead of millions of records.

    Slots are recycled through a freelist; residents of one router form a
    doubly-linked chain iterated newest-first (the order the seed's
    cons-onto-residents lists had).  A slot index is stable only while its
    resident is alive — code that parks a slot across simulated time (e.g. a
    timeout closure) must re-resolve identifier -> slot when it fires,
    because the slot may have been released and reused. *)

type t

val create :
  routers:int -> cap_list:int -> hint:int -> dummy:Rofl_idspace.Id.t -> t
(** [create ~routers ~cap_list ~hint ~dummy] sizes the per-router chain
    table for [routers] routers, allows up to [cap_list] successor-list
    entries per resident, pre-allocates about [hint] slots (growing by
    doubling beyond that), and uses [dummy] to fill vacant identifier
    cells. *)

val cap_list : t -> int

val alloc : t -> router:int -> Rofl_idspace.Id.t -> int
(** Allocate a slot for an identifier residing at [router], prepended to
    the router's chain.  All fields start empty (no succ/pred, empty list,
    [pred_heard = 0], probe not in flight). *)

val release : t -> int -> unit
(** Free a slot: unlink from its router chain, return to the freelist. *)

val iter_router : t -> int -> (int -> unit) -> unit
(** Apply to each slot resident at a router, newest allocation first.  The
    callback may [release] the slot it is given, but must not allocate. *)

val chain_head : t -> int -> int
(** First slot of a router's chain ([-1] if empty) — with {!chain_next},
    a closure-free traversal for hot loops that cannot afford the visitor
    closure of {!iter_router}.  Only valid while no slot is released. *)

val chain_next : t -> int -> int

val owner : t -> int -> int
(** Hosting router of a slot, [-1] if the slot is free. *)

val rid : t -> int -> Rofl_idspace.Id.t

val rkey : t -> int -> int
(** [Id.key] of {!rid}; with {!succ_key}, the ranker's prefilter columns. *)

val succ : t -> int -> (Rofl_idspace.Id.t * int) option

val succ_rid : t -> int -> Rofl_idspace.Id.t
(** Allocation-free successor accessors for hot paths: meaningful only when
    [succ_router t s >= 0]. *)

val succ_key : t -> int -> int

val succ_router : t -> int -> int

val set_succ : t -> int -> (Rofl_idspace.Id.t * int) option -> unit

val pred : t -> int -> (Rofl_idspace.Id.t * int) option

val pred_rid : t -> int -> Rofl_idspace.Id.t
(** Meaningful only when [pred_router_raw t s >= 0]. *)

val pred_router_raw : t -> int -> int
(** The predecessor's router without the option box, [-1] when absent. *)

val set_pred : t -> int -> (Rofl_idspace.Id.t * int) option -> unit

val pred_heard : t -> int -> float

val set_pred_heard : t -> int -> float -> unit

val probe_inflight : t -> int -> bool

val set_probe_inflight : t -> int -> bool -> unit

val due : t -> int -> float
(** Next stabilisation due time for this resident (auto-tuned mode); [0.0]
    on a fresh slot, i.e. due immediately. *)

val set_due : t -> int -> float -> unit

val succ_list : t -> int -> (Rofl_idspace.Id.t * int) list
(** The successor-list backups as a fresh list, nearest first. *)

val succ_list_len : t -> int -> int
(** Allocation-free successor-list accessors for hot paths: the backup at
    index [k] (0 ≤ k < [succ_list_len]) without materialising the list. *)

val succ_list_id : t -> int -> int -> Rofl_idspace.Id.t

val succ_list_router : t -> int -> int -> int

val blit_succ_list : t -> int -> Rofl_idspace.Id.t array -> int array -> int -> unit
(** [blit_succ_list t s ids routers pos] copies the backups, nearest first,
    into [ids] and [routers] from index [pos]: the snapshot a protocol
    reply carries as two flat columns. *)

val set_succ_list : t -> int -> (Rofl_idspace.Id.t * int) list -> unit
(** Store the backups, silently truncated to [cap_list] entries. *)

(** {2 The successor-list normaliser}

    Every adoption stages its candidate backups, then {!normalize} writes
    the result straight into the slot's columns; no list is built. *)

val stage : t -> Rofl_idspace.Id.t -> int -> unit
(** Append a candidate [(id, router)] to the staging run. *)

val stage_backups : t -> int -> unit
(** Append the slot's current backups, nearest first. *)

val normalize :
  t -> int -> self:Rofl_idspace.Id.t -> succ:Rofl_idspace.Id.t -> limit:int -> quota:int ->
  groups:int array -> exempt:(Rofl_idspace.Id.t -> int -> bool) -> unit
(** [normalize t s ~self ~succ ~limit ~quota ~groups ~exempt] replaces slot
    [s]'s backups by the staging run, and empties the run: entries equal to
    [self] or [succ] dropped ([~succ:self] when there is none), one entry
    per identifier (the one [List.sort_uniq] keeps), sorted by clockwise
    distance from [self]; with [quota > 0] and [groups] (router -> group)
    non-empty, at most [quota] entries per group, closest first, entries
    with [exempt id router] uncounted; the first [min limit (cap_list t)]
    kept.  Entry for entry the list pipeline (filter, [List.sort_uniq],
    quota filter, truncation) it replaced; allocation-free once the staging
    run has grown to its largest size. *)
