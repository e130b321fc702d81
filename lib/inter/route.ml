module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Asgraph = Rofl_asgraph.Asgraph
module Policy = Rofl_asgraph.Policy
module Walk = Rofl_routing.Walk
module Trace = Rofl_routing.Trace
module Metrics = Rofl_netsim.Metrics
module Pointer_cache = Rofl_core.Pointer_cache

type result = {
  delivered : bool;
  as_hops : int;
  as_path : int list;
  pointer_hops : int;
  cache_hops : int;
  peer_crossings : int;
  backtracks : int;
  max_level_breadth : int;
  trace : Trace.t;
}

(* Appends an AS to the walk's path in the network's scratch. *)
let push (t : Net.t) a =
  let w = t.Net.walk in
  let n = w.Net.as_path_len in
  if n = Array.length w.Net.as_path then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit w.Net.as_path 0 bigger 0 n;
    w.Net.as_path <- bigger
  end;
  Array.unsafe_set w.Net.as_path n a;
  w.Net.as_path_len <- n + 1

let rec path_list path i acc = if i < 0 then acc else path_list path (i - 1) (path.(i) :: acc)

(* Prices a move from [a] to [b] at [level] and charges it to [data]: load
   at every AS of the route, in path order, then its hops.  The ASes past
   [a] extend the walk's path.  Returns the hops, or -1 (nothing charged)
   when the level does not connect the two; the route stays readable in
   the level scratch until the next {!Level.route_within}. *)
let charge_move (t : Net.t) level a b =
  let ctx = t.Net.ctx in
  let d = Level.route_within ctx level a b in
  if d > 0 then begin
    for i = 0 to d do
      Metrics.add_load t.Net.metrics (Level.path_hop ctx i)
    done;
    Metrics.incr t.Net.metrics Metrics.Data d;
    for i = 1 to d do
      push t (Level.path_hop ctx i)
    done
  end;
  d

let rec joined level = function
  | [] -> false
  | l :: rest -> Level.equal l level || joined level rest

(* The greedy loop — candidate ranking, per-move commit, step guard — lives
   in {!Rofl_routing.Walk}; this substrate supplies the AS-granularity
   state.  One Walk step is one pointer traversal: a level-restricted ring
   move (possibly diverted mid-path over a bloom peering link, §4.2) or an
   unrestricted cache shortcut.  Position lives in the state record (the
   packet's AS, ring position, and position host move together), and so do
   both candidates [select] found and which one it picked: a move is
   consumed whole.  The AS path grows in the network's scratch and becomes
   a list once, at [finish].  The destination is looked up once, at the
   start: its home AS and joined levels cannot change while a packet is in
   flight. *)
module Route_substrate = struct
  type st = {
    net : Net.t;
    dst : Id.t;
    dst_home : int; (* -1: no live host holds [dst] *)
    dst_levels : Level.t list; (* the levels [dst] joined; [] when unknown *)
    stamp : int; (* this walk's mark in [Net.walk.tried] *)
    mutable cur : int;
    mutable pos : Id.t;
    mutable pos_host : Net.host;
    mutable as_hops : int;
    mutable pointer_hops : int;
    mutable cache_hops : int;
    mutable peer_crossings : int;
    mutable backtracks : int;
    mutable max_breadth : int;
    mutable ceiling : Level.t;
    tracer : Trace.builder option; (* [None]: record nothing *)
    (* The ring candidate: its level, identifier, host, and whether taking
       it narrows the ceiling. *)
    mutable ring_level : Level.t;
    mutable ring_id : Id.t;
    mutable ring_host : Net.host;
    mutable ring_narrows : bool;
    (* The cache candidate. *)
    mutable cache_id : Id.t;
    mutable cache_host : Net.host;
    (* The picked move: the cache candidate, or else the ring one. *)
    mutable cache_picked : bool;
  }

  type verdict = result

  (* The seed guard admitted 4096 working iterations; [run] counts from 0. *)
  let max_steps _ = 4095
  let restart_limit _ = 0
  let horizon = `Per_move
  let stale_commit _ = false
  let exhausted _ = true

  let finish st delivered =
    let w = st.net.Net.walk in
    {
      delivered;
      as_hops = st.as_hops;
      as_path = path_list w.Net.as_path (w.Net.as_path_len - 1) [];
      pointer_hops = st.pointer_hops;
      cache_hops = st.cache_hops;
      peer_crossings = st.peer_crossings;
      backtracks = st.backtracks;
      max_level_breadth = st.max_breadth;
      trace = (match st.tracer with Some b -> Trace.events b | None -> []);
    }

  (* Distances and level names are built only for a sink. *)
  let record st kind ~router level id =
    match st.tracer with
    | Some b ->
      Trace.record b ~kind ~router ~level:(Level.to_trace level)
        ~dist:(Id.distance id st.dst)
    | None -> ()

  let record_peer st kind ~router =
    match st.tracer with
    | Some b ->
      Trace.record b ~kind ~router ~level:Trace.Peer ~dist:(Id.distance st.pos st.dst)
    | None -> ()

  (* Keep-first over the fingers at [level] (same tie precedence as
     {!Walk.best} over successor-then-fingers): an eligible finger replaces
     the incumbent ring candidate only when strictly closer to [dst]. *)
  let rec fold_fingers st level found = function
    | [] -> found
    | (flevel, fid) :: rest ->
      if not (Level.equal flevel level) then fold_fingers st level found rest
      else begin
        match Hashtbl.find st.net.Net.hosts fid with
        | exception Not_found -> fold_fingers st level found rest
        | fh ->
          if fh.Net.alive_h && Id.between_incl st.pos fid st.dst
             && ((not found) || Id.closer_clockwise ~target:st.dst fid st.ring_id)
          then begin
            st.ring_id <- fid;
            st.ring_host <- fh;
            fold_fingers st level true rest
          end
          else fold_fingers st level found rest
      end

  (* The level successor of the position, improved by any finger at the
     same level, into the ring registers. *)
  let candidate_at st level narrows =
    let r = Net.ring st.net level in
    let c = Ring.cursor_gt st.pos r in
    let succ_found =
      (not (Ring.cursor_is_none c))
      &&
      let sid = Ring.id_at r c and sh = Ring.value_at r c in
      sh.Net.alive_h && Id.between_incl st.pos sid st.dst
      && begin
        st.ring_id <- sid;
        st.ring_host <- sh;
        true
      end
    in
    fold_fingers st level succ_found st.pos_host.Net.fingers
    && begin
      st.ring_level <- level;
      st.ring_narrows <- narrows;
      true
    end

  let rec scan_levels st narrows = function
    | [] -> false
    | level :: rest ->
      if narrows
         && not
              (Level.subsumes st.net.Net.ctx ~outer:st.ceiling ~inner:level
              && joined level st.dst_levels)
      then scan_levels st narrows rest
      else candidate_at st level narrows || scan_levels st narrows rest

  (* Best candidate at the lowest usable level of the position host's
     joined set.

     Levels whose subtree contains the destination (a test the per-subtree
     host summaries of §2.3 answer) are preferred bottom-up — once inside
     the smallest destination-containing subtree the packet never leaves
     it, which is the isolation property.  Only when no joined level
     contains the destination (wrong branch of the hierarchy) does the walk
     fall back to the lowest level making any clockwise progress.  A
     level's ring holds [dst] exactly when [dst_levels], the destination's
     joined levels, names the level, so [dst_levels] answers the
     containment test. *)
  let lowest_level_candidate st =
    let levels = Net.as_levels st.net st.cur in
    scan_levels st true levels || scan_levels st false levels

  (* Cache shortcut, guarded so it can never violate isolation: if the
     destination is below this AS the bloom filter necessarily says so (no
     false negatives) and the cache is bypassed (§4.1).  The
     false-positive draw is taken whether or not the destination is
     below. *)
  let cache_candidate st =
    let t = st.net in
    if t.Net.cfg.Net.cache_capacity = 0 then false
    else begin
      let dst_below =
        st.dst_home >= 0 && Asgraph.in_cone (Level.graph t.Net.ctx) ~root:st.cur st.dst_home
      in
      let fp_conservatism =
        t.Net.cfg.Net.peering_mode = Net.Bloom_filters
        && Prng.float t.Net.rng 1.0 < t.Net.cfg.Net.bloom_fpr
      in
      if dst_below || fp_conservatism then false
      else begin
        let c = t.Net.caches.(st.cur) in
        let s = Pointer_cache.best_match c ~cur:st.pos ~target:st.dst in
        if s = Pointer_cache.none then false
        else begin
          let cid = Pointer_cache.dst c s in
          match Hashtbl.find t.Net.hosts cid with
          | ch
            when ch.Net.alive_h && ch.Net.home_as = Pointer_cache.dst_router c s
                 && Id.between_incl st.pos cid st.dst ->
            st.cache_id <- cid;
            st.cache_host <- ch;
            true
          | _ | (exception Not_found) ->
            Pointer_cache.remove c cid;
            false
        end
      end
    end

  (* After a bloom hit at peer [p] that really holds the destination below
     it: descend within [p]'s subtree to the destination's AS. *)
  let descend st p =
    let d = charge_move st.net (Level.Real p) p st.dst_home in
    if d < 0 then finish st false
    else begin
      st.as_hops <- st.as_hops + d;
      st.cur <- st.dst_home;
      finish st true
    end

  let arrived st = if st.dst_home = st.cur then Some (finish st true) else None

  (* Free intra-AS move to the closest live resident of the current AS in
     the clockwise interval (pos, dst]: [dst] itself when resident,
     otherwise its ring predecessor. *)
  let prepare st =
    let r = st.net.Net.resident_rings.(st.cur) in
    let c =
      let cf = Ring.cursor_find st.dst r in
      if Ring.cursor_is_none cf then Ring.cursor_lt st.dst r else cf
    in
    if not (Ring.cursor_is_none c) then begin
      let mid = Ring.id_at r c and mh = Ring.value_at r c in
      if mh.Net.alive_h && Id.between_incl st.pos mid st.dst && not (Id.equal mid st.pos)
      then begin
        st.pos <- mid;
        st.pos_host <- mh
      end
    end

  (* {!Walk.best} over [ring move; cache move]: the cached pointer
     overrides the ring candidate only when strictly closer.  The cache
     lookup runs whichever wins, after the ring scan: it draws from the
     network's rng. *)
  let select st =
    let ring = lowest_level_candidate st in
    let cache = cache_candidate st in
    if ring && cache then begin
      st.cache_picked <- Id.closer_clockwise ~target:st.dst st.cache_id st.ring_id;
      true
    end
    else if ring || cache then begin
      st.cache_picked <- cache;
      true
    end
    else false

  let target st = st.dst

  let picked_id st = if st.cache_picked then st.cache_id else st.ring_id

  let deliver_here _ = None
  let commit _ = true

  (* Claims the peering link from [a] to its [k]th peer [p] for this
     packet: false when it was already tried (or [p] is down), so each
     filter is consulted once. *)
  let first_try st a k p =
    Net.as_alive st.net p
    &&
    let w = st.net.Net.walk in
    let i = w.Net.peer_slot0.(a) + k in
    w.Net.tried.(i) <> st.stamp
    && begin
      w.Net.tried.(i) <- st.stamp;
      true
    end

  (* Bloom-filter peering (§4.2) at the current AS: consult the peers'
     filters from the [k]th on; a hit crosses the peering link and
     descends, a false positive backtracks. *)
  let rec attempt_peers st g k = function
    | [] -> None
    | p :: rest ->
      let t = st.net in
      if not (first_try st st.cur k p) then attempt_peers st g (k + 1) rest
      else if Net.bloom_check t p ~home:st.dst_home then begin
        (* Cross the peering link. *)
        Metrics.charge_hop t.Net.metrics Metrics.Data p;
        st.as_hops <- st.as_hops + 1;
        st.peer_crossings <- st.peer_crossings + 1;
        push t p;
        record_peer st Trace.Flood ~router:p;
        if st.dst_home >= 0 && Asgraph.in_cone g ~root:p st.dst_home then
          (* Descend within the peer's subtree to the destination. *)
          Some (descend st p)
        else begin
          (* False positive: the packet comes back over the peering link
             and continues (§4.2). *)
          Metrics.charge_hop t.Net.metrics Metrics.Data st.cur;
          st.as_hops <- st.as_hops + 1;
          st.backtracks <- st.backtracks + 1;
          push t st.cur;
          record_peer st Trace.Backtrack ~router:st.cur;
          attempt_peers st g (k + 1) rest
        end
      end
      else attempt_peers st g (k + 1) rest

  let try_peers st =
    let g = Level.graph st.net.Net.ctx in
    attempt_peers st g 0 (Asgraph.peers g st.cur)

  (* Transit AS [a] consults its peers' filters from the [k]th on: the peer
     that really holds the destination below it, or -1.  A false positive
     crosses and comes back. *)
  let rec divert_peers st g a k = function
    | [] -> -1
    | p :: more ->
      let t = st.net in
      if not (first_try st a k p) then divert_peers st g a (k + 1) more
      else if Net.bloom_check t p ~home:st.dst_home then begin
        Metrics.charge_hop t.Net.metrics Metrics.Data p;
        st.as_hops <- st.as_hops + 1;
        st.peer_crossings <- st.peer_crossings + 1;
        record_peer st Trace.Flood ~router:p;
        if st.dst_home >= 0 && Asgraph.in_cone g ~root:p st.dst_home then p
        else begin
          (* False positive: back over the peering link. *)
          Metrics.charge_hop t.Net.metrics Metrics.Data a;
          st.as_hops <- st.as_hops + 1;
          st.backtracks <- st.backtracks + 1;
          record_peer st Trace.Backtrack ~router:a;
          divert_peers st g a (k + 1) more
        end
      end
      else divert_peers st g a (k + 1) more

  (* Only the ascent of the move consults peers: after crossing, a packet
     may not go back up the hierarchy (§4.2), so the first two ASes past
     the move's start ([i] = 1, 2 of the [d]-hop route in the level
     scratch) are asked, in path order. *)
  let rec divert_along st g d i =
    if i > d || i > 2 then -1
    else begin
      let a = Level.path_hop st.net.Net.ctx i in
      let p = divert_peers st g a 0 (Asgraph.peers g a) in
      if p >= 0 then p else divert_along st g d (i + 1)
    end

  (* Transit-AS bloom checks (§4.2): as a [d]-hop move's packet passes
     through an AS, that AS may consult its peers' filters and divert the
     packet over the peering link; a false positive sends it back onto its
     path.  The peer that took the packet, or -1. *)
  let transit_divert st d =
    if st.net.Net.cfg.Net.peering_mode <> Net.Bloom_filters then -1
    else divert_along st (Level.graph st.net.Net.ctx) d 1

  let stuck st = finish st false

  let follow_cache st =
    let cid = st.cache_id and ch = st.cache_host in
    let d = charge_move st.net Level.Root st.cur ch.Net.home_as in
    if d < 0 then Some (stuck st)
    else begin
      st.as_hops <- st.as_hops + d;
      st.pointer_hops <- st.pointer_hops + 1;
      st.cache_hops <- st.cache_hops + 1;
      st.ceiling <- Level.Root;
      st.cur <- ch.Net.home_as;
      st.pos <- cid;
      st.pos_host <- ch;
      record st Trace.Cache ~router:ch.Net.home_as Level.Root cid;
      None
    end

  let follow_ring st =
    let level = st.ring_level and cid = st.ring_id and ch = st.ring_host in
    let d = charge_move st.net level st.cur ch.Net.home_as in
    if d < 0 then Some (stuck st)
    else begin
      st.as_hops <- st.as_hops + d;
      st.pointer_hops <- st.pointer_hops + 1;
      st.max_breadth <- Int.max st.max_breadth (Level.breadth st.net.Net.ctx level);
      let p = transit_divert st d in
      if p >= 0 then begin
        push st.net p;
        Some (descend st p)
      end
      else begin
        st.cur <- ch.Net.home_as;
        st.pos <- cid;
        st.pos_host <- ch;
        if st.ring_narrows then st.ceiling <- level;
        record st Trace.Ring ~router:ch.Net.home_as level cid;
        None
      end
    end

  (* Before taking a root-level (blind) ring move in bloom-filter mode,
     consult the peers' filters. *)
  let follow st =
    if st.cache_picked then follow_cache st
    else if st.net.Net.cfg.Net.peering_mode = Net.Bloom_filters
            && (match st.ring_level with
                | Level.Root -> true
                | Level.Real _ | Level.Peer_group _ -> false)
    then match try_peers st with Some _ as finished -> finished | None -> follow_ring st
    else follow_ring st

  let no_candidate st =
    if st.net.Net.cfg.Net.peering_mode = Net.Bloom_filters then
      match try_peers st with Some r -> r | None -> finish st false
    else finish st false

  let settle st = finish st false (* unreachable under [`Per_move] *)
end

module Route_walk = Walk.Make (Route_substrate)

let route_from ?trace (t : Net.t) ~src ~dst =
  let dst_home, dst_levels =
    match Hashtbl.find t.Net.hosts dst with
    | h -> ((if h.Net.alive_h then h.Net.home_as else -1), h.Net.joined)
    | exception Not_found -> (-1, [])
  in
  let w = t.Net.walk in
  w.Net.walk_stamp <- w.Net.walk_stamp + 1;
  w.Net.as_path_len <- 0;
  push t src.Net.home_as;
  let st =
    {
      Route_substrate.net = t;
      dst;
      dst_home;
      dst_levels;
      stamp = w.Net.walk_stamp;
      cur = src.Net.home_as;
      pos = src.Net.id;
      pos_host = src;
      as_hops = 0;
      pointer_hops = 0;
      cache_hops = 0;
      peer_crossings = 0;
      backtracks = 0;
      max_breadth = 0;
      ceiling = Level.Root;
      tracer = trace;
      ring_level = Level.Root;
      ring_id = src.Net.id;
      ring_host = src;
      ring_narrows = false;
      cache_id = src.Net.id;
      cache_host = src;
      cache_picked = false;
    }
  in
  Metrics.inject t.Net.metrics Metrics.Data src.Net.home_as;
  Route_walk.run st

let stretch_vs_bgp t ~src ~dst =
  match Net.locate t dst with
  | None -> None
  | Some dst_home when dst_home = src.Net.home_as -> None
  | Some dst_home ->
    let policy = Level.policy t.Net.ctx in
    (match Policy.bgp_distance policy ~src:src.Net.home_as ~dst:dst_home with
     | None | Some 0 -> None
     | Some bgp ->
       let r = route_from t ~src ~dst in
       if not r.delivered then None
       else Some (float_of_int (max r.as_hops 1) /. float_of_int bgp))

let rec mark_real_levels ctx = function
  | [] -> ()
  | Level.Real a :: rest ->
    Level.mark ctx a;
    mark_real_levels ctx rest
  | (Level.Peer_group _ | Level.Root) :: rest -> mark_real_levels ctx rest

let rec any_marked ctx = function
  | [] -> false
  | a :: rest -> Level.is_marked ctx a || any_marked ctx rest

(* Is [a] inside the cone of a marked AS of [ups]? *)
let rec under_marked g ctx a = function
  | [] -> false
  | anc :: rest ->
    (Level.is_marked ctx anc && Asgraph.in_cone g ~root:anc a) || under_marked g ctx a rest

let rec all_under_marked g ctx ups = function
  | [] -> true
  | a :: rest -> under_marked g ctx a ups && all_under_marked g ctx ups rest

let isolation_respected t r ~src ~dst =
  if r.peer_crossings > 0 || r.cache_hops > 0 then true
  else begin
    match Hashtbl.find t.Net.hosts dst with
    | exception Not_found -> true
    | dst_h ->
      let ctx = t.Net.ctx in
      let g = Level.graph ctx in
      let ups_src = Asgraph.up_hierarchy g src.Net.home_as in
      (* The guarantee is relative to the hierarchy the destination actually
         joined: an ephemeral or single-homed destination is only reachable
         through the levels it registered at (§2.3).  The common ancestors
         are the marked ASes of [ups_src]. *)
      Level.mark_clear ctx;
      mark_real_levels ctx dst_h.Net.joined;
      (not (any_marked ctx ups_src)) || all_under_marked g ctx ups_src r.as_path
  end
