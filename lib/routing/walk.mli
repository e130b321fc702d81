(** The shared greedy ring-walk core.

    ROFL's defining mechanism — greedy clockwise progress towards a flat
    label over successor pointers, improved by cached source routes — is the
    same loop in the intradomain layer (router-granularity walks over SPF
    source routes, {!Rofl_intra.Network.lookup}) and the interdomain layer
    (AS-granularity walks over per-level rings, {!Rofl_inter.Route}).  This
    functor owns that loop once: commit-to-route versus strictly-closer
    replacement, stale-pointer NACK/restart, and the step guard.  A
    {!SUBSTRATE} supplies what differs between layers: the walk's registers,
    fused candidate selection (the {!best} ranking applied while the
    substrate scans its state, so no candidate list is built), move-cost
    charging, and the termination predicates. *)

module Id = Rofl_idspace.Id

val best : target:Id.t -> id_of:('a -> Id.t) -> 'a list -> 'a option
(** Greedy candidate ranking: the element whose identifier minimises the
    clockwise distance to [target] (so the target itself wins outright).
    Ties keep the earliest element, so enumeration order encodes precedence
    — both layers list ring state before cache shortcuts, which is how "a
    cached pointer wins only when strictly closer" falls out of the
    ranking.  Allocation-free per comparison: candidates are ranked with
    {!Id.closer_clockwise} rather than materialised distances.  This is the
    reference definition of {!SUBSTRATE.select}. *)

(** A substrate keeps the walk's whole moving state in the registers of its
    [st]: the packet's position, the candidate {!SUBSTRATE.select} picked
    and the route {!SUBSTRATE.commit} committed to.  The loop passes only
    [st], so a hop that neither terminates nor restarts the walk boxes
    nothing in the loop itself; options are built only for verdicts. *)
module type SUBSTRATE = sig
  type st
  (** Per-walk state: the network plus the walk's mutable registers
      (position, selection, committed route, counters, trace sink). *)

  type verdict
  (** Terminal outcome of the walk. *)

  val max_steps : st -> int
  (** Step guard: the walk gives up after this many loop iterations. *)

  val restart_limit : st -> int
  (** How many stale-pointer restarts are allowed before the walk stops
      pruning and settles with whatever it can still see. *)

  val horizon : [ `Persistent | `Per_move ]
  (** [`Persistent]: the walk remembers the distance of the identifier it
      committed to and only re-commits to a strictly closer candidate,
      otherwise it keeps following the committed route (the intradomain
      discipline, where a route is followed one physical hop at a time and
      transit routers may shortcut).  [`Per_move]: every move consumes its
      route atomically and the next iteration re-selects from scratch (the
      interdomain discipline). *)

  val arrived : st -> verdict option
  (** Checked first each iteration: has the walk already terminated at the
      current position? *)

  val prepare : st -> unit
  (** Free normalisation of the position before candidate selection (e.g.
      the free intra-AS move to the closest local resident); nothing if
      none. *)

  val stale_commit : st -> bool
  (** Called when the committed route is exhausted (or nothing is committed):
      if the identifier the walk was chasing is gone from the current
      position, prune the stale pointer (NACK back to its owner) and return
      [true] to restart the walk from here with a cleared horizon.  Must
      return [false] when nothing was committed. *)

  val select : st -> bool
  (** Pick the best progress candidate here into the selection registers:
      exactly {!best} over the valid candidates (liveness, route validity,
      exclusions) in precedence order — ring state first, cache shortcuts
      last, a later candidate winning only when strictly closer to
      {!target}.  [false] when nothing qualifies. *)

  val target : st -> Id.t
  (** The identifier the walk is chasing; fixed for the walk's lifetime. *)

  val picked_id : st -> Id.t
  (** The identifier of the candidate the last {!select} picked; under
      [`Persistent] the loop compares its clockwise distance to {!target}
      against the committed horizon without allocating distances. *)

  val deliver_here : st -> verdict option
  (** If the picked candidate terminates the walk at the current position
      (the target or its predecessor is resident right here), the
      verdict. *)

  val commit : st -> bool
  (** Turn the picked candidate into the followable route of the route
      register, recording any commit bookkeeping (owner/chased for NACKs,
      trace tags); [false] when no route can be constructed (the walk is
      stuck). *)

  val exhausted : st -> bool
  (** Nothing of the committed route is left to follow. *)

  val follow : st -> verdict option
  (** Advance one unit along the committed route, charging costs and
      tracing: [None] when the walk moved on, the verdict when the move
      itself terminated the walk or the route cannot be followed from
      here. *)

  val no_candidate : st -> verdict
  (** Nothing to select at all (after any substrate-specific last resort,
      e.g. the interdomain peer-filter consultation). *)

  val settle : st -> verdict
  (** Recovery exhausted under [`Persistent]: no closer candidate, nothing
      committed left to follow. *)

  val stuck : st -> verdict
  (** Guard exceeded, or unconstructible route. *)
end

module Make (S : SUBSTRATE) : sig
  val run : S.st -> S.verdict
  (** Drive the greedy loop from the position held in [st] until a
      verdict.  Each iteration: guard check, arrival check, stale-commit
      NACK/restart, free normalisation, candidate selection, then either
      terminal delivery, commit to a strictly closer candidate, continuation
      along the committed route, or settling. *)
end
