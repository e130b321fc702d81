(** Virtual nodes: the per-identifier routing state a hosting router keeps.

    When a host's ID becomes resident at a gateway router, the router spawns
    a virtual node holding the ring state for that identifier (Algorithm 1).
    Routers also own one {e default} virtual node keyed by the router-ID,
    whose successors act as default routes (§3.1).  Stable and ephemeral
    hosts differ in how much ring state their vnode keeps (§2.2). *)

type host_class =
  | Router_default  (** the router's own ID *)
  | Stable          (** server / stable desktop *)
  | Ephemeral       (** laptop, intermittently-connected host *)

type t = private {
  id : Rofl_idspace.Id.t;
  key : int;                        (** [Id.key id], the ranker's prefilter *)
  host_class : host_class;
  mutable hosted_at : int;          (** current gateway router *)
  mutable succ_cols : int array;
  (** successor columns, nearest first: [succ_cols.(2 i)] is the
      [Id.key] of [succ_ptrs.(i)]'s destination and [succ_cols.(2 i + 1)]
      its [dst_router], so a ranker can reject a successor without loading
      its pointer *)
  mutable succ_ptrs : Pointer.t array;  (** successor group, nearest first *)
  mutable preds : Pointer.t list;   (** predecessor group, nearest first *)
  mutable alive : bool;
}
(** Private: read freely, mutate only through the functions below, which
    keep the successor columns equal to their pointers. *)

val create :
  Rofl_idspace.Id.t -> host_class -> hosted_at:int -> t

val is_default : t -> bool

val mark_dead : t -> unit
(** The identifier left or its router failed. *)

val succs : t -> Pointer.t list
(** The successor group as a fresh list, nearest first. *)

val succ_count : t -> int

val first_succ : t -> Pointer.t option

val first_pred : t -> Pointer.t option

val set_succs : ?max_group:int -> t -> Pointer.t list -> unit
(** Replace the successor group; the list is re-sorted into ring order
    (nearest clockwise from the vnode's own identifier first),
    deduplicated by destination identifier (the first pointer kept) and
    trimmed to [max_group] entries, if given. *)

val set_preds : t -> Pointer.t list -> unit
(** Replace the predecessor group, sorted nearest counter-clockwise first. *)

val add_succ : t -> Pointer.t -> max_group:int -> unit
(** Insert a successor pointer, keeping the group sorted, deduplicated by
    destination identifier (the new pointer replaces an old one to the same
    identifier), and trimmed to [max_group] entries. *)

val add_pred : t -> Pointer.t -> max_group:int -> unit

val drop_pointers_if : t -> (Pointer.t -> bool) -> int
(** Remove every succ/pred pointer satisfying the predicate; returns how many
    were dropped (used on failure notifications).  The predicate sees the
    successors, then the predecessors, each group nearest first. *)

val filter_map_pointers : t -> (Pointer.t -> Pointer.t option) -> unit
(** Replace every succ/pred pointer [p] by [f p], dropping those mapped to
    [None]; order is kept, so [f] must keep each pointer's destination (a
    rerouted pointer).  [f] sees the groups in {!drop_pointers_if}'s
    order. *)

val state_entries : t -> int
(** Number of pointer entries this vnode pins in router memory. *)

val audit : t -> string list
(** Empty iff the successor columns hold exactly the keys and routers of
    [succ_ptrs], and the group is strictly in clockwise order.
    Exported for tests: test_intra's column properties run it after every
    mutation. *)

val host_class_to_string : host_class -> string
