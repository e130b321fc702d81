(** Policy routing over AS graphs: valley-free paths and a BGP-like baseline.

    Two distinct path models, used for different purposes:

    - {!bgp_distance} models today's BGP decision process (Gao–Rexford:
      prefer customer-learned over peer-learned over provider-learned routes,
      then shortest AS path), with valley-free export rules.  The paper uses
      the BGP path as the stretch denominator for interdomain ROFL and as the
      "BGP-policy" comparison curve of Fig. 8b.

    - {!vf_distance_within} is the shortest valley-free path whose every AS
      lies inside a given AS's customer cone — the length of the best
      AS-level source route ROFL may use for a pointer at that level of the
      hierarchy without violating the isolation property (§4.1). *)

type t

val create : Asgraph.t -> t

val graph : t -> Asgraph.t

val bgp_distance : t -> src:int -> dst:int -> int option
(** AS-hop length of the BGP-selected path, [None] if no policy-compliant
    path exists.  [Some 0] when [src = dst].  Each query climbs provider
    edges from [dst] (its customer routes) and then reads the Gao–Rexford
    choice upwards from [src], memoising the best route of each ancestor of
    [src] it visits: O(ancestors × peers), no per-destination table.  The
    scratch arrays live in [t], sized on the first query, so a policy
    belongs to one task, as the interdomain [Level.route_within]'s scratch
    does. *)

val shortest_distance : t -> src:int -> dst:int -> int option
(** Plain BFS over every link (providers, peers, backups), ignoring policy —
    the physical lower bound.  Memoised per source. *)

val vf_distance_within :
  t -> root:int option -> ?blocked:(int -> bool) -> int -> int -> int option
(** Shortest valley-free path — a climb, one optional peer step, a descent —
    between two ASes.  With [root = Some r] every AS on the path must lie in
    [customer_cone r]; [None] means unrestricted.  [blocked] excludes failed
    ASes.  Not memoised (it is a cheap bidirectional climb).

    Kept as a reference: the unmemoised valley-free distance test_asgraph
    and test_consistency check routes against. *)

