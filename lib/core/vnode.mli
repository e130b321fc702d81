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

type t = {
  id : Rofl_idspace.Id.t;
  key : int;                        (** [Id.key id], the ranker's prefilter *)
  host_class : host_class;
  mutable hosted_at : int;          (** current gateway router *)
  mutable succs : Pointer.t list;   (** successor group, nearest first *)
  mutable preds : Pointer.t list;   (** predecessor group, nearest first *)
  mutable alive : bool;
}

val create :
  Rofl_idspace.Id.t -> host_class -> hosted_at:int -> t

val is_default : t -> bool

val first_succ : t -> Pointer.t option

val first_pred : t -> Pointer.t option

val set_succs : t -> Pointer.t list -> unit
(** Replace the successor group; the list is re-sorted into ring order
    (nearest clockwise from the vnode's own identifier first). *)

val set_preds : t -> Pointer.t list -> unit
(** Replace the predecessor group, sorted nearest counter-clockwise first. *)

val add_succ : t -> Pointer.t -> max_group:int -> unit
(** Insert a successor pointer, keeping the group sorted, deduplicated by
    destination identifier, and trimmed to [max_group] entries. *)

val add_pred : t -> Pointer.t -> max_group:int -> unit

val remove_succ : t -> Rofl_idspace.Id.t -> unit

val drop_pointers_if : t -> (Pointer.t -> bool) -> int
(** Remove every succ/pred pointer satisfying the predicate; returns how many
    were dropped (used on failure notifications). *)

val state_entries : t -> int
(** Number of pointer entries this vnode pins in router memory. *)

val host_class_to_string : host_class -> string
