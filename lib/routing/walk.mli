(** The shared greedy ring-walk core.

    ROFL's defining mechanism — greedy clockwise progress towards a flat
    label over successor pointers, improved by cached source routes — is the
    same loop in the intradomain layer (router-granularity walks over SPF
    source routes, {!Rofl_intra.Network.lookup}) and the interdomain layer
    (AS-granularity walks over per-level rings, {!Rofl_inter.Route}).  This
    functor owns that loop once: commit-to-route versus strictly-closer
    replacement, stale-pointer NACK/restart, and the step guard.  A
    {!SUBSTRATE} supplies what differs between layers: the position type,
    fused candidate selection (the {!best} ranking applied while the
    substrate scans its state, so no candidate list is built), move-cost
    charging, and the termination predicates. *)

module Id = Rofl_idspace.Id

type ('pos, 'route, 'verdict) moved =
  | Stepped of 'pos * 'route
      (** Advanced one unit; the remaining committed route is carried along
          (exhausted for substrates whose moves are atomic). *)
  | Finished of 'verdict  (** The move itself terminated the walk. *)
  | Blocked  (** The committed route cannot be followed from here. *)

val best : target:Id.t -> id_of:('a -> Id.t) -> 'a list -> 'a option
(** Greedy candidate ranking: the element whose identifier minimises the
    clockwise distance to [target] (so the target itself wins outright).
    Ties keep the earliest element, so enumeration order encodes precedence
    — both layers list ring state before cache shortcuts, which is how "a
    cached pointer wins only when strictly closer" falls out of the
    ranking.  Allocation-free per comparison: candidates are ranked with
    {!Id.closer_clockwise} rather than materialised distances.  This is the
    reference definition of {!SUBSTRATE.select}. *)

module type SUBSTRATE = sig
  type st
  (** Per-walk state: the network plus the walk's mutable registers
      (counters, trace builder, commit bookkeeping). *)

  type pos
  (** Where the packet is (a router index, or unit when the substrate keeps
      the position in [st]). *)

  type cand
  (** A way to make progress: a locally resident identifier, a successor /
      finger pointer, or a cache entry. *)

  type route
  (** The committed tail towards the best identifier seen so far. *)

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

  val arrived : st -> pos -> verdict option
  (** Checked first each iteration: has the walk already terminated here? *)

  val prepare : st -> pos -> pos
  (** Free normalisation before candidate selection (e.g. the free
      intra-AS move to the closest local resident); identity if none. *)

  val stale_commit : st -> pos -> bool
  (** Called when the committed route is exhausted (or nothing is committed):
      if the identifier the walk was chasing is gone from this position,
      prune the stale pointer (NACK back to its owner) and return [true] to
      restart the walk from here with a cleared horizon.  Must return
      [false] when nothing was committed. *)

  val select : st -> pos -> cand option
  (** The best progress candidate here: exactly {!best} over the valid
      candidates (liveness, route validity, exclusions) in precedence order —
      ring state first, cache shortcuts last, a later candidate winning only
      when strictly closer to {!target}.  Substrates fuse the ranking into
      their scan, keeping running-best registers and boxing only the
      winner; [None] when nothing qualifies. *)

  val target : st -> Id.t
  (** The identifier the walk is chasing; fixed for the walk's lifetime. *)

  val cand_id : st -> cand -> Id.t
  (** The candidate's identifier; under [`Persistent] the loop compares
      its clockwise distance to {!target} against the committed horizon
      without allocating distances. *)

  val deliver_here : st -> pos -> cand -> verdict option
  (** If selecting this candidate terminates the walk at [pos] (the target
      or its predecessor is resident right here), the verdict. *)

  val commit : st -> pos -> cand -> route option
  (** Turn the selected candidate into a followable route, recording any
      commit bookkeeping (owner/chased for NACKs, trace tags); [None] when
      no route can be constructed (the walk is stuck). *)

  val exhausted : route -> bool

  val follow : st -> pos -> route -> (pos, route, verdict) moved
  (** Advance one unit along the route, charging costs and tracing. *)

  val no_candidate : st -> pos -> verdict
  (** Nothing to select at all (after any substrate-specific last resort,
      e.g. the interdomain peer-filter consultation). *)

  val settle : st -> pos -> verdict
  (** Recovery exhausted under [`Persistent]: no closer candidate, nothing
      committed left to follow. *)

  val stuck : st -> pos -> verdict
  (** Guard exceeded, un-followable route, or unconstructible route. *)
end

module Make (S : SUBSTRATE) : sig
  val run : S.st -> start:S.pos -> S.verdict
  (** Drive the greedy loop from [start] until a verdict.  Each iteration:
      guard check, arrival check, stale-commit NACK/restart, free
      normalisation, candidate selection, then either terminal delivery,
      commit to a strictly closer candidate, continuation along the
      committed route, or settling. *)
end
