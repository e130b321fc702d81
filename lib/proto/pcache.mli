(** The per-router pointer cache (§2.2): a flat fixed-capacity cache of
    owner pointers learned from lookup responses, with entry ages for the
    refresh sweep ({!Refresh}).  Not {!Rofl_core.Pointer_cache}: at tens of
    entries a flat, allocation-free scan beats the ordered index.  A cache
    is mutated only in its router's execution context, so it shards like
    the resident store.  The eviction rule and the per-group admission
    quota live here and nowhere else. *)

type t = private {
  cap : int;
  ids : Rofl_idspace.Id.t array;
  routers : int array;  (** hosting router of each entry *)
  stamp : float array;  (** install or last-validated time, ms *)
  mutable len : int;    (** entries [0 .. len - 1] are live *)
  quota : int;          (** max entries per router group, 0 = unbounded *)
  groups : int array;   (** router -> group, [[||]] = ungrouped *)
}

val create : ?quota:int -> ?groups:int array -> int -> Rofl_idspace.Id.t -> t
(** [create ?quota ?groups cap dummy]: an empty cache of [cap] entries
    (0 disables it), vacant cells filled with [dummy]. *)

val insert : t -> now:float -> Rofl_idspace.Id.t -> int -> unit
(** Install or refresh a pointer hosted at a router.  A full cache evicts
    its oldest entry (lowest stamp, ties to the lowest index: LRU without
    recency links).  With a group quota, an admission that would
    over-concentrate one group is refused outright (the Kademlia IP-quota
    rule): concentration is the attack, so a full group keeps its entries
    rather than churn them for the newcomer. *)

val remove_at : t -> int -> unit
(** Drop entry [i], shifting the later ones down. *)

val best_toward : t -> target:Rofl_idspace.Id.t -> int
(** The entry closest to [target] (clockwise from the entry to the target),
    the best diversified start for a greedy walk, or -1.  Allocation-free. *)

val group_quota_ok : t -> bool
(** No group holds more entries than the quota allows (vacuously true with
    quotas off) — the doctor's structural invariant. *)
