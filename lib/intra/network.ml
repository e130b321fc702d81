module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Sourceroute = Rofl_core.Sourceroute
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
module Walk = Rofl_routing.Walk
module Trace = Rofl_routing.Trace
module Prng = Rofl_util.Prng
module Identity = Rofl_crypto.Identity
module Sha256 = Rofl_crypto.Sha256

let log_src = Rofl_util.Logging.make_src "intra"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  succ_group_size : int;
  pred_group_size : int;
  cache_capacity : int;
  cache_control_paths : bool;
  sybil_limit : int;
}

let default_config =
  {
    succ_group_size = 4;
    pred_group_size = 2;
    cache_capacity = 1024;
    cache_control_paths = true;
    sybil_limit = 100_000;
  }

module Vnode_table = Hashtbl.Make (struct
  type t = Id.t

  let equal = Id.equal
  let hash = Id.hash
end)

type router = {
  idx : int;
  default_vnode : Vnode.t;
  mutable residents : Vnode.t list;
  cache : Pointer_cache.t;
  auditor : Identity.sybil_auditor;
  attachments : (Id.t, int) Hashtbl.t;
}

type t = {
  graph : Graph.t;
  ls : Linkstate.t;
  rng : Prng.t;
  cfg : config;
  routers : router array;
  metrics : Metrics.t;
  vnodes : Vnode.t Vnode_table.t;
  oracle : Vnode.t Ring.t;
  mutable bootstrap_msgs : int;
  latency_reg : float array;
}

let router_id i =
  Id.of_bytes_exn (String.sub (Sha256.digest (Printf.sprintf "router:%d" i)) 0 16)

(* -- path helpers ------------------------------------------------------- *)

let spf_route t src dst = Sourceroute.of_block (Linkstate.route t.ls src dst)

let make_pointer t kind ~from_router ~dst ~dst_router =
  let route = spf_route t from_router dst_router in
  if Sourceroute.routers route = 0 then None
  else Some (Pointer.make kind ~dst ~dst_router ~route ~start:0)

let charge_spf_into ls metrics category src dst ~latency i =
  let hops = Linkstate.price_hop_into ls src dst ~latency i in
  if hops > 0 then begin
    Metrics.incr metrics category hops;
    Linkstate.iter_path ls src dst Metrics.add_load metrics
  end;
  hops

(* Charge a message travelling the SPF path between two routers: returns the
   hop count (0 if unreachable) and adds the path latency into
   [t.latency_reg.(i)], so no latency is boxed.  Cell 0 takes the latencies
   no caller reads; a caller that reads one zeroes cell 1 first. *)
let charge_spf_at t i category src dst =
  let hops = charge_spf_into t.ls t.metrics category src dst ~latency:t.latency_reg i in
  if hops < 0 then 0 else hops

let charge_spf t category src dst = charge_spf_at t 0 category src dst

(* -- construction ------------------------------------------------------- *)

let create ?(cfg = default_config) ~rng graph =
  if cfg.succ_group_size < 1 then invalid_arg "Network.create: succ group must be >= 1";
  let ls = Linkstate.create graph in
  let n = Graph.n graph in
  let routers =
    Array.init n (fun idx ->
        {
          idx;
          default_vnode = Vnode.create (router_id idx) Vnode.Router_default ~hosted_at:idx;
          residents = [];
          cache = Pointer_cache.create ~capacity:cfg.cache_capacity;
          auditor = Identity.auditor ~limit:cfg.sybil_limit;
          attachments = Hashtbl.create 8;
        })
  in
  let t =
    {
      graph;
      ls;
      rng;
      cfg;
      routers;
      metrics = Metrics.create ~routers:n;
      vnodes = Vnode_table.create (4 * n);
      oracle = Ring.create ();
      bootstrap_msgs = 0;
      latency_reg = [| 0.0; 0.0 |];
    }
  in
  (* Bootstrap: every router's default vnode joins by flooding its
     router-ID (§3.1); the resulting steady state is the ring over
     router-IDs with succ/pred groups and SPF source routes. *)
  Array.iter
    (fun r ->
      r.residents <- [ r.default_vnode ];
      Vnode_table.replace t.vnodes r.default_vnode.Vnode.id r.default_vnode;
      Ring.add r.default_vnode.Vnode.id r.default_vnode t.oracle;
      let cost = Linkstate.lsa_flood_cost ls in
      Metrics.incr t.metrics Metrics.Flood cost;
      t.bootstrap_msgs <- t.bootstrap_msgs + cost)
    routers;
  Array.iter
    (fun r ->
      let vn = r.default_vnode in
      let succs =
        Ring.k_successors cfg.succ_group_size vn.Vnode.id t.oracle
        |> List.filter_map (fun (sid, (sv : Vnode.t)) ->
               if Id.equal sid vn.Vnode.id then None
               else
                 make_pointer t Pointer.Successor ~from_router:r.idx ~dst:sid
                   ~dst_router:sv.Vnode.hosted_at)
      in
      Vnode.set_succs vn succs;
      let preds =
        let rec collect acc cur k =
          if k = 0 then acc
          else
            match Ring.predecessor cur t.oracle with
            | Some (pid, (pv : Vnode.t)) when not (Id.equal pid vn.Vnode.id) ->
              let acc =
                match
                  make_pointer t Pointer.Predecessor ~from_router:r.idx ~dst:pid
                    ~dst_router:pv.Vnode.hosted_at
                with
                | Some p -> p :: acc
                | None -> acc
              in
              collect acc pid (k - 1)
            | Some _ | None -> acc
        in
        List.rev (collect [] vn.Vnode.id cfg.pred_group_size)
      in
      Vnode.set_preds vn preds)
    routers;
  t

(* -- greedy lookup ------------------------------------------------------ *)

type lookup_status = Delivered of Vnode.t | Predecessor of Vnode.t | Stuck of int

type lookup_result = {
  status : lookup_status;
  msgs : int;
  latency_ms : float;
  visited : Sourceroute.t;
  trace : Trace.t;
}

(* The routers a walk traverses are written, 2 bytes each, into a growable
   block per domain ([Pool] domains walk different networks at once) and
   copied out once, exact-size, when the walk ends.  A walk never starts
   another, so one block serves every walk of a domain. *)
let visited_scratch = Domain.DLS.new_key (fun () -> Bytes.create 64)

let no_route = Sourceroute.of_block Bytes.empty

type candidate = Local of Vnode.t | Remote of Pointer.t

(* The walk moves ONE physical hop at a time: Algorithm 2's route() runs at
   every router a message transits, so transit routers can shortcut through
   their own residents and pointer caches.  The greedy loop itself —
   closest-without-overshoot ranking, strictly-closer replacement of the
   committed source route, stale-pointer NACK/restart, step guard — lives in
   {!Rofl_routing.Walk}; this substrate supplies the router-granularity
   state: candidate enumeration, source-route commits, per-link charging.
   The packet's router, the picked candidate and the committed route (a
   route block and the index of its next hop) are registers of [st], so a
   hop allocates nothing. *)
module Lookup_substrate = struct
  type st = {
    net : t;
    target : Id.t;
    category : Metrics.counter;
    use_cache : bool;
    exclude : Id.t option;
    step_limit : int;
    mutable cur : int;  (* the router the packet is at *)
    (* The committed source route: its block, and the hop of the block the
       packet goes to next. *)
    mutable route : Sourceroute.t;
    mutable route_at : int;
    mutable msgs : int;
    latency : float array;  (* one unboxed cell *)
    (* The routers traversed, in order, in the first [visited_n] hops of
       the domain's [visited_scratch]; kept only for callers that read them
       ([visited_n] is -1 otherwise). *)
    mutable visited_n : int;
    (* Router that handed out the committed pointer (-1: nothing committed)
       and the identifier it chases: the NACK addressee when the pointer
       turns out stale. *)
    mutable commit_owner : int;
    mutable commit_chased : Id.t;
    mutable commit_kind : Trace.kind;
    (* The trace sink; [None] records nothing and boxes no distance. *)
    tracer : Trace.builder option;
    target_key : int;
    (* Running-best registers of [select]: the winner so far, its
       identifier and its key distance to the target. *)
    mutable pick : pick;
    mutable pick_id : Id.t;
    mutable pick_d : int;
    mutable pick_vn : Vnode.t;
    mutable pick_slot : int;
  }

  (* [Pick_local] is the resident [pick_vn], [Pick_remote] its successor
     in slot [pick_slot] of the group, [Pick_cached] the entry in slot
     [pick_slot] of the cache at [cur]. *)
  and pick = No_pick | Pick_local | Pick_remote | Pick_cached

  type verdict = lookup_result

  let max_steps st = st.step_limit
  let restart_limit _ = 4
  let horizon = `Persistent
  let arrived _ = None
  let prepare _ = ()

  let push_visited st r =
    let i = 2 * st.visited_n in
    let buf = Domain.DLS.get visited_scratch in
    let buf =
      if i + 2 <= Bytes.length buf then buf
      else begin
        let b = Bytes.create (2 * Bytes.length buf) in
        Bytes.blit buf 0 b 0 i;
        Domain.DLS.set visited_scratch b;
        b
      end
    in
    Bytes.set_uint16_le buf i r;
    st.visited_n <- st.visited_n + 1

  let finish st status =
    {
      status;
      msgs = st.msgs;
      latency_ms = st.latency.(0);
      visited =
        (if st.visited_n < 0 then no_route
         else
           Sourceroute.of_block
             (Bytes.sub (Domain.DLS.get visited_scratch) 0 (2 * st.visited_n)));
      trace = (match st.tracer with Some b -> Trace.events b | None -> []);
    }

  (* The distance is boxed only for a sink. *)
  let record st kind ~router chased =
    match st.tracer with
    | Some b ->
      Trace.record b ~kind ~router ~level:Trace.Intra ~dist:(Id.distance chased st.target)
    | None -> ()

  let rec alive_in id = function
    | [] -> false
    | (vn : Vnode.t) :: rest -> (vn.Vnode.alive && Id.equal vn.Vnode.id id) || alive_in id rest

  let resident_alive st cur id = alive_in id st.net.routers.(cur).residents

  (* Negative acknowledgement: the router that handed out a pointer to an
     identifier no longer resident at its target prunes it (the lazy probe
     repair of group tails, §4.1). *)
  let nack st cur owner chased =
    let t = st.net in
    let _ = charge_spf t Metrics.Teardown cur owner in
    let to_chased _ (p : Pointer.t) = Id.equal p.Pointer.dst chased in
    List.iter
      (fun (vn : Vnode.t) -> ignore (Vnode.drop_pointers_if vn to_chased))
      t.routers.(owner).residents;
    Pointer_cache.remove t.routers.(owner).cache chased;
    Pointer_cache.remove t.routers.(cur).cache chased

  let stale_commit st =
    let cur = st.cur and owner = st.commit_owner and chased = st.commit_chased in
    if owner >= 0 && not (resident_alive st cur chased) then begin
      (* Arrived where the chased identifier should live, but it is gone:
         stale pointer. *)
      nack st cur owner chased;
      record st Trace.Backtrack ~router:cur chased;
      st.commit_owner <- -1;
      true
    end
    else false

  let target st = st.target
  let picked_id st = st.pick_id

  (* {!Walk.best} fused into the scan, in its precedence order: residents
     (and their successor pointers) first, the cache shortcut last.  A
     candidate replaces the running best only when strictly closer, so a
     tie keeps the earlier one.  [d] is the candidate's key distance to the
     target, which decides most comparisons without loading either
     identifier. *)
  let[@inline] improves st id d =
    (match st.exclude with Some e -> not (Id.equal e id) | None -> true)
    && (match st.pick with
        | No_pick -> true
        | Pick_local | Pick_remote | Pick_cached ->
          Id.closer_clockwise_keyed ~target:st.target d id st.pick_d st.pick_id)

  (* Pointer routes are recorded from links actually traversed (or SPF
     paths), so consecutive pairs are always graph links: with no failure
     outstanding they are valid by construction and the per-hop scan can be
     skipped.  Validity is checked last: it is the costly test. *)
  let consider_succ st ~healthy (vn : Vnode.t) i d =
    let (p : Pointer.t) = Array.unsafe_get vn.Vnode.succ_ptrs i in
    if improves st p.Pointer.dst d
       && (healthy || Sourceroute.is_valid st.net.ls p.Pointer.route (Pointer.start p))
    then begin
      st.pick <- Pick_remote;
      st.pick_id <- p.Pointer.dst;
      st.pick_d <- d;
      st.pick_vn <- vn;
      st.pick_slot <- i
    end

  (* The cache's best match at [cur], read from its columns.  Like a
     successor, an entry hosted at [cur] itself is covered by the Local
     candidates (or is stale): a remote candidate must lead elsewhere. *)
  let consider_cached st cur ~healthy c =
    let s = Pointer_cache.best_match c ~cur:st.target ~target:st.target in
    if s <> Pointer_cache.none && Pointer_cache.dst_router c s <> cur then begin
      let id = Pointer_cache.dst c s in
      let d = (st.target_key - Id.key id) land Id.key_mask in
      if improves st id d
         && (healthy
             || Sourceroute.is_valid st.net.ls (Pointer_cache.route c s)
                  (Pointer_cache.start c s))
      then begin
        st.pick <- Pick_cached;
        st.pick_id <- id;
        st.pick_d <- d;
        st.pick_slot <- s
      end
    end

  (* The successor columns of [vn] from slot [i] on, in the group's order,
     reading the router and key columns first.  A successor whose key
     distance exceeds a positive running best's is farther from the target
     (the argument is in id.mli), so {!Id.closer_clockwise_keyed} would
     answer "not closer" from the keys alone: it is rejected without
     loading its pointer. *)
  let rec consider_succs st cur ~healthy (vn : Vnode.t) i =
    let cols = vn.Vnode.succ_cols in
    if 2 * i < Array.length cols then begin
      if Array.unsafe_get cols ((2 * i) + 1) <> cur then begin
        let d = (st.target_key - Array.unsafe_get cols (2 * i)) land Id.key_mask in
        if not (st.pick <> No_pick && st.pick_d > 0 && d > st.pick_d)
        then consider_succ st ~healthy vn i d
      end;
      consider_succs st cur ~healthy vn (i + 1)
    end

  let rec consider_residents st cur ~healthy = function
    | [] -> ()
    | (vn : Vnode.t) :: rest ->
      if vn.Vnode.alive then begin
        (* Ephemeral identifiers never serve as ring hops (§2.2); they are
           only candidates when they are the packet's own destination. *)
        let routable =
          match vn.Vnode.host_class with
          | Vnode.Stable | Vnode.Router_default -> true
          | Vnode.Ephemeral -> Id.equal vn.Vnode.id st.target
        in
        if routable then begin
          let d = (st.target_key - vn.Vnode.key) land Id.key_mask in
          if improves st vn.Vnode.id d then begin
            st.pick <- Pick_local;
            st.pick_id <- vn.Vnode.id;
            st.pick_d <- d;
            st.pick_vn <- vn
          end
        end;
        consider_succs st cur ~healthy vn 0
      end;
      consider_residents st cur ~healthy rest

  let select_among st ~healthy residents =
    st.pick <- No_pick;
    consider_residents st st.cur ~healthy residents

  let select st =
    let cur = st.cur in
    let r = st.net.routers.(cur) in
    let healthy = Linkstate.healthy st.net.ls in
    select_among st ~healthy r.residents;
    if st.use_cache then consider_cached st cur ~healthy r.cache;
    st.pick <> No_pick

  let deliver_here st =
    match st.pick with
    | Pick_local ->
      let vn = st.pick_vn in
      if Id.equal vn.Vnode.id st.target then Some (finish st (Delivered vn))
      else
        (* The closest known identifier is resident right here and its
           successors all overshoot: this vnode is the predecessor. *)
        Some (finish st (Predecessor vn))
    | Pick_remote | Pick_cached | No_pick -> None

  let commit_to st ~dst ~dst_router kind route start =
    let cur = st.cur in
    st.commit_owner <- cur;
    st.commit_chased <- dst;
    st.commit_kind <-
      (match kind with
       | Pointer.Cached -> Trace.Cache
       | Pointer.Successor | Pointer.Predecessor | Pointer.Finger -> Trace.Ring);
    if Sourceroute.router route start = cur then begin
      st.route <- route;
      st.route_at <- start + 1;
      true
    end
    else begin
      (* Route does not start here (cached suffix mismatch): fall back to
         the network map. *)
      let route = spf_route st.net cur dst_router in
      if Sourceroute.routers route = 0 then false
      else begin
        st.route <- route;
        st.route_at <- 1;
        true
      end
    end

  let commit st =
    match st.pick with
    | Pick_local | No_pick -> false (* unreachable: deliver_here terminates on locals *)
    | Pick_remote ->
      let (p : Pointer.t) = st.pick_vn.Vnode.succ_ptrs.(st.pick_slot) in
      commit_to st ~dst:p.Pointer.dst ~dst_router:p.Pointer.dst_router (Pointer.kind p)
        p.Pointer.route (Pointer.start p)
    | Pick_cached ->
      let c = st.net.routers.(st.cur).cache and s = st.pick_slot in
      commit_to st ~dst:(Pointer_cache.dst c s) ~dst_router:(Pointer_cache.dst_router c s)
        (Pointer_cache.kind c s) (Pointer_cache.route c s) (Pointer_cache.start c s)

  let exhausted st = st.route_at >= Sourceroute.routers st.route

  let stuck st = finish st (Stuck st.cur)

  let follow st =
    let cur = st.cur and i = st.route_at in
    let next = if i < Sourceroute.routers st.route then Sourceroute.router st.route i else -1 in
    if next >= 0 && Graph.has_link st.net.graph cur next then begin
      Metrics.charge_hop st.net.metrics st.category next;
      st.msgs <- st.msgs + 1;
      st.latency.(0) <- st.latency.(0) +. Graph.latency st.net.graph cur next;
      if st.visited_n >= 0 then push_visited st next;
      record st st.commit_kind ~router:next st.commit_chased;
      st.cur <- next;
      st.route_at <- i + 1;
      None
    end
    else Some (stuck st)

  let no_candidate = stuck

  (* Recovery exhausted: settle for the best local member. *)
  let settle st =
    let cur = st.cur in
    let eligible =
      List.filter
        (fun (vn : Vnode.t) ->
          vn.Vnode.alive
          && (match vn.Vnode.host_class with
             | Vnode.Ephemeral -> Id.equal vn.Vnode.id st.target
             | Vnode.Stable | Vnode.Router_default -> true)
          &&
          match st.exclude with Some e -> not (Id.equal e vn.Vnode.id) | None -> true)
        st.net.routers.(cur).residents
    in
    match
      Walk.best ~target:st.target ~id_of:(fun (vn : Vnode.t) -> vn.Vnode.id) eligible
    with
    | Some vn when Id.equal vn.Vnode.id st.target -> finish st (Delivered vn)
    | Some vn -> finish st (Predecessor vn)
    | None -> finish st (Stuck cur)

  let create ?exclude ?trace ~visited t ~from ~target ~category ~use_cache =
    let st =
    {
      net = t;
      target;
      category;
      use_cache;
      exclude;
      step_limit = (4 * Graph.n t.graph) + (2 * Ring.cardinal t.oracle) + 16;
      cur = from;
      route = no_route;
      route_at = 0;
      msgs = 0;
      latency = [| 0.0 |];
      visited_n = (if visited then 0 else -1);
      commit_owner = -1;
      commit_chased = target;
      commit_kind = Trace.Ring;
      tracer = trace;
      target_key = Id.key target;
      pick = No_pick;
      pick_id = target;
      pick_d = 0;
      pick_vn = t.routers.(from).default_vnode;
      pick_slot = Pointer_cache.none;
    }
    in
    if visited then push_visited st from;
    st
end

module Lookup_walk = Walk.Make (Lookup_substrate)

let lookup ?exclude ?trace ?(visited = false) t ~from ~target ~category ~use_cache =
  let st =
    Lookup_substrate.create ?exclude ?trace ~visited t ~from ~target ~category ~use_cache
  in
  Metrics.inject t.metrics category from;
  Lookup_walk.run st

let rank_residents ?exclude t ~cur ~target residents =
  let st =
    Lookup_substrate.create ?exclude ~visited:false t ~from:cur ~target
      ~category:Metrics.Data ~use_cache:false
  in
  Lookup_substrate.select_among st ~healthy:(Linkstate.healthy t.ls) residents;
  match st.Lookup_substrate.pick with
  | Lookup_substrate.No_pick -> None
  | Lookup_substrate.Pick_local -> Some (Local st.Lookup_substrate.pick_vn)
  | Lookup_substrate.Pick_remote ->
    Some (Remote st.Lookup_substrate.pick_vn.Vnode.succ_ptrs.(st.Lookup_substrate.pick_slot))
  | Lookup_substrate.Pick_cached -> assert false (* the cache is not consulted *)

let find_vnode t id = Vnode_table.find_opt t.vnodes id

(* A dead vnode no table holds: what an option-free probe answers for an
   identifier that has no vnode, so a liveness test reads one field and
   allocates nothing. *)
let gone =
  let vn = Vnode.create Id.zero Vnode.Router_default ~hosted_at:(-1) in
  Vnode.mark_dead vn;
  vn

let vnode_or_gone t id =
  match Vnode_table.find t.vnodes id with vn -> vn | exception Not_found -> gone

let is_live t id = (vnode_or_gone t id).Vnode.alive

let live_and_reachable t ~from id =
  let vn = vnode_or_gone t id in
  vn.Vnode.alive && Linkstate.reachable t.ls from vn.Vnode.hosted_at

(* The oracle holds exactly the table's default and stable vnodes, in ring
   order; only the ephemeral ones need sorting.  The ephemeral list is
   taken before [f] first runs; the oracle is walked in place, and
   [Ring.iter] raises if [f] changes it. *)
let iter_members t f =
  let ephemerals =
    Vnode_table.fold
      (fun _ (vn : Vnode.t) acc ->
        match vn.Vnode.host_class with
        | Vnode.Ephemeral -> vn :: acc
        | Vnode.Stable | Vnode.Router_default -> acc)
      t.vnodes []
    |> List.sort (fun (a : Vnode.t) (b : Vnode.t) -> Id.compare a.Vnode.id b.Vnode.id)
  in
  Ring.iter (fun _ vn -> f vn) t.oracle;
  List.iter f ephemerals

let ring_size t = Ring.cardinal t.oracle

let host_count t =
  Vnode_table.fold
    (fun _ (vn : Vnode.t) acc ->
      match vn.Vnode.host_class with
      | Vnode.Stable | Vnode.Ephemeral -> acc + 1
      | Vnode.Router_default -> acc)
    t.vnodes 0

let router_state_entries t idx =
  let r = t.routers.(idx) in
  List.fold_left
    (fun acc (vn : Vnode.t) -> if vn.Vnode.alive then acc + Vnode.state_entries vn else acc)
    (Hashtbl.length r.attachments) r.residents

let avg_router_state_entries t =
  let total = ref 0 in
  Array.iter (fun r -> total := !total + router_state_entries t r.idx) t.routers;
  float_of_int !total /. float_of_int (Array.length t.routers)

(* -- cache filling ------------------------------------------------------ *)

let cache_route_to t id dst_router route =
  (* Every slice of [route] ends where the block does, so one check decides
     whether the slices are usable source routes to [dst_router].  Each
     router along the path caches the same block at its own hop. *)
  let n = Sourceroute.routers route in
  if t.cfg.cache_control_paths && t.cfg.cache_capacity > 0 && n > 0
     && Sourceroute.destination route = dst_router
  then
    for i = 0 to n - 1 do
      let r = Sourceroute.router route i in
      if r <> dst_router then
        Pointer_cache.insert t.routers.(r).cache Pointer.Cached ~dst:id ~dst_router ~route
          ~start:i
    done

(* -- repairs ------------------------------------------------------------ *)

(* Ring-walk to the first member that is alive and reachable from [vn]'s
   router: under a partition this yields the per-component ring the zero-ID
   protocol converges to (§3.2).  One O(log n) search, then O(1) cursor
   steps over the dead/unreachable run; a top-level loop over immediate
   ints, so the walk allocates nothing. *)
let rec successor_from t (vn : Vnode.t) c steps =
  let r = t.oracle in
  if steps > Ring.cardinal r || Ring.cursor_is_none c then Ring.cursor_none
  else if Id.equal (Ring.id_at r c) vn.Vnode.id then Ring.cursor_none
  else begin
    let (sv : Vnode.t) = Ring.value_at r c in
    if sv.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at sv.Vnode.hosted_at then c
    else successor_from t vn (Ring.cursor_next r c) (steps + 1)
  end

let oracle_successor_of t (vn : Vnode.t) =
  successor_from t vn (Ring.cursor_gt vn.Vnode.id t.oracle) 0

let oracle_predecessor_of t (vn : Vnode.t) =
  let r = t.oracle in
  let limit = Ring.cardinal r in
  let rec go c steps =
    if steps > limit || Ring.cursor_is_none c then None
    else begin
      let pid = Ring.id_at r c in
      if Id.equal pid vn.Vnode.id then None
      else begin
        let (pv : Vnode.t) = Ring.value_at r c in
        if pv.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at pv.Vnode.hosted_at
        then Some (pid, pv)
        else go (Ring.cursor_prev r c) (steps + 1)
      end
    end
  in
  go (Ring.cursor_lt vn.Vnode.id r) 0

let repair_successor t (vn : Vnode.t) =
  let alive (p : Pointer.t) = live_and_reachable t ~from:vn.Vnode.hosted_at p.Pointer.dst in
  let survivors = List.filter alive (Vnode.succs vn) in
  match survivors with
  | (first : Pointer.t) :: _ ->
    (* Shift the successor group down (§3.2) and confirm with the new head. *)
    Vnode.set_succs vn survivors;
    let _ = charge_spf t Metrics.Repair vn.Vnode.hosted_at first.Pointer.dst_router in
    ()
  | [] ->
    (* Group exhausted: re-discover via the network map / ring walk. *)
    let c = oracle_successor_of t vn in
    if Ring.cursor_is_none c then Vnode.set_succs vn []
    else begin
      let (sv : Vnode.t) = Ring.value_at t.oracle c in
      match
        make_pointer t Pointer.Successor ~from_router:vn.Vnode.hosted_at ~dst:sv.Vnode.id
          ~dst_router:sv.Vnode.hosted_at
      with
      | Some p ->
        Vnode.set_succs vn [ p ];
        let _ = charge_spf t Metrics.Repair vn.Vnode.hosted_at sv.Vnode.hosted_at in
        let _ = charge_spf t Metrics.Repair sv.Vnode.hosted_at vn.Vnode.hosted_at in
        ()
      | None -> Vnode.set_succs vn []
    end

let repair_predecessor t (vn : Vnode.t) =
  let alive (p : Pointer.t) = live_and_reachable t ~from:vn.Vnode.hosted_at p.Pointer.dst in
  let survivors = List.filter alive vn.Vnode.preds in
  match survivors with
  | _ :: _ -> Vnode.set_preds vn survivors
  | [] ->
    (match oracle_predecessor_of t vn with
     | Some (pid, (pv : Vnode.t)) ->
       (match
          make_pointer t Pointer.Predecessor ~from_router:vn.Vnode.hosted_at ~dst:pid
            ~dst_router:pv.Vnode.hosted_at
        with
        | Some p ->
          Vnode.set_preds vn [ p ];
          let _ = charge_spf t Metrics.Repair vn.Vnode.hosted_at pv.Vnode.hosted_at in
          ()
        | None -> Vnode.set_preds vn [])
     | None -> Vnode.set_preds vn [])

(* -- joins --------------------------------------------------------------- *)

type join_outcome = { vnode : Vnode.t; join_msgs : int; join_latency_ms : float }

(* Returns the messages charged, and leaves the splice's latency (the
   predecessor's reply, then the notice to the successor) in
   [t.latency_reg.(1)]. *)
let splice_stable t ~gateway (vn : Vnode.t) (pred : Vnode.t) =
  let msgs = ref 0 in
  t.latency_reg.(1) <- 0.0;
  let pred_router = pred.Vnode.hosted_at in
  (* Reply from the predecessor carrying its successor list (becomes ours). *)
  msgs := !msgs + charge_spf_at t 1 Metrics.Join_reply pred_router gateway;
  let inherited =
    List.filter_map
      (fun (p : Pointer.t) ->
        if Id.equal p.Pointer.dst vn.Vnode.id then None
        else
          let sv = vnode_or_gone t p.Pointer.dst in
          if sv.Vnode.alive then
            make_pointer t Pointer.Successor ~from_router:gateway ~dst:p.Pointer.dst
              ~dst_router:sv.Vnode.hosted_at
          else None)
      (Vnode.succs pred)
  in
  Vnode.set_succs vn inherited ~max_group:t.cfg.succ_group_size;
  (* Predecessor adopts us as its first successor. *)
  (match
     make_pointer t Pointer.Successor ~from_router:pred_router ~dst:vn.Vnode.id
       ~dst_router:gateway
   with
   | Some p -> Vnode.add_succ pred p ~max_group:t.cfg.succ_group_size
   | None -> ());
  (* We adopt the predecessor. *)
  (match
     make_pointer t Pointer.Predecessor ~from_router:gateway ~dst:pred.Vnode.id
       ~dst_router:pred_router
   with
   | Some p -> Vnode.add_pred vn p ~max_group:t.cfg.pred_group_size
   | None -> ());
  (* Notify our successor to adopt us as predecessor. *)
  if Vnode.succ_count vn > 0 then begin
    let sv = vnode_or_gone t vn.Vnode.succ_ptrs.(0).Pointer.dst in
    if sv != gone then begin
      let h1 = charge_spf_at t 1 Metrics.Join gateway sv.Vnode.hosted_at in
      let h2 = charge_spf t Metrics.Join_reply sv.Vnode.hosted_at gateway in
      msgs := !msgs + h1 + h2;
      match
        make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at ~dst:vn.Vnode.id
          ~dst_router:gateway
      with
      | Some p -> Vnode.add_pred sv p ~max_group:t.cfg.pred_group_size
      | None -> ()
    end
  end;
  !msgs

let join_host t ~gateway ~id ~cls =
  if gateway < 0 || gateway >= Array.length t.routers then
    invalid_arg "Network.join_host: bad gateway";
  if not (Linkstate.router_alive t.ls gateway) then Error "gateway router is down"
  else if Vnode_table.mem t.vnodes id then Error "identifier already resident"
  else begin
    let r = t.routers.(gateway) in
    match Identity.admit r.auditor id with
    | Error e -> Error e
    | Ok () ->
      let vn = Vnode.create id cls ~hosted_at:gateway in
      let res =
        lookup t ~from:gateway ~target:id ~category:Metrics.Join ~use_cache:true
          ~visited:t.cfg.cache_control_paths
      in
      (match res.status with
       | Stuck _ ->
         Identity.release r.auditor id;
         Error "join lookup stuck (network partitioned?)"
       | Delivered _ ->
         Identity.release r.auditor id;
         Error "identifier already present in ring"
       | Predecessor pred ->
         Log.debug (fun m ->
             m "join %s at router %d (pred %s)" (Id.to_short_string id) gateway
               (Id.to_short_string pred.Vnode.id));
         r.residents <- vn :: r.residents;
         Vnode_table.replace t.vnodes id vn;
         let msgs = ref res.msgs and latency = ref res.latency_ms in
         (match cls with
          | Vnode.Ephemeral ->
            (* Only a path between the ephemeral host and its predecessor
               (§2.2): the predecessor's router keeps the attachment. *)
            let pred_router = pred.Vnode.hosted_at in
            (match
               make_pointer t Pointer.Predecessor ~from_router:gateway ~dst:pred.Vnode.id
                 ~dst_router:pred_router
             with
             | Some p -> Vnode.set_preds vn [ p ]
             | None -> ());
            Hashtbl.replace t.routers.(pred_router).attachments id gateway;
            t.latency_reg.(1) <- 0.0;
            msgs := !msgs + charge_spf_at t 1 Metrics.Join_reply pred_router gateway;
            latency := !latency +. t.latency_reg.(1)
          | Vnode.Stable | Vnode.Router_default ->
            Ring.add id vn t.oracle;
            msgs := !msgs + splice_stable t ~gateway vn pred;
            latency := !latency +. t.latency_reg.(1);
            (* Control-path caching: the forward walk saw the predecessor's
               identifier; the reply path saw ours. *)
            cache_route_to t pred.Vnode.id pred.Vnode.hosted_at res.visited;
            cache_route_to t id gateway (spf_route t pred.Vnode.hosted_at gateway));
         Ok { vnode = vn; join_msgs = !msgs; join_latency_ms = !latency })
  end

let join_fresh_host t ~gateway ~cls =
  let kp = Identity.generate t.rng in
  let id = Identity.id_of_keypair kp in
  match
    Identity.authenticate t.rng ~claimed_id:id (Identity.public kp) (fun c ->
        Identity.respond kp c)
  with
  | Error e -> Error e
  | Ok () ->
    (match join_host t ~gateway ~id ~cls with
     | Ok outcome -> Ok (id, outcome)
     | Error e -> Error e)

(* -- graceful leave ------------------------------------------------------ *)

let leave_host t id =
  match find_vnode t id with
  | None -> Error "no such identifier"
  | Some vn when Vnode.is_default vn -> Error "cannot remove a router's default vnode"
  | Some vn ->
    let gateway = vn.Vnode.hosted_at in
    (* Tear-down messages to every successor and predecessor (§3.2). *)
    let notify (p : Pointer.t) =
      let _ = charge_spf t Metrics.Teardown gateway p.Pointer.dst_router in
      ()
    in
    Array.iter notify vn.Vnode.succ_ptrs;
    List.iter notify vn.Vnode.preds;
    Log.debug (fun m -> m "leave %s from router %d" (Id.to_short_string id) gateway);
    Vnode.mark_dead vn;
    Vnode_table.remove t.vnodes id;
    Ring.remove id t.oracle;
    let r = t.routers.(gateway) in
    r.residents <- List.filter (fun (v : Vnode.t) -> not (Id.equal v.Vnode.id id)) r.residents;
    Identity.release r.auditor id;
    (* Ephemeral attachment cleanup at the predecessor. *)
    (match vn.Vnode.preds with
     | (p : Pointer.t) :: _ -> Hashtbl.remove t.routers.(p.Pointer.dst_router).attachments id
     | [] -> ());
    (* Directed flood clearing cached state for this identifier: one
       message to each router caching it (the array names each router
       once). *)
    Array.iter
      (fun r' ->
        if Pointer_cache.find r'.cache id <> Pointer_cache.none then begin
          let _ = charge_spf t Metrics.Directed_flood gateway r'.idx in
          Pointer_cache.remove r'.cache id
        end)
      t.routers;
    (* Neighbours repair around the gap.  Tear-downs go to every ring
       member that may hold group state for the departed identifier — the
       [succ_group_size] members counter-clockwise and [pred_group_size]
       members clockwise (the "routers holding predecessors of ida" of
       §3.2) — and the message carries the departed vnode's own
       successor/predecessor lists so the immediate neighbours learn members
       only it knew about before shifting their groups. *)
    let collect step k =
      let rec go acc cur k =
        if k = 0 then List.rev acc
        else
          match step cur t.oracle with
          | Some (nid, (nv : Vnode.t)) when not (Id.equal nid id) ->
            if List.exists (fun (v : Vnode.t) -> Id.equal v.Vnode.id nid) acc then
              List.rev acc
            else go (nv :: acc) nid (k - 1)
          | Some _ | None -> List.rev acc
      in
      go [] id k
    in
    let ccw = collect Ring.predecessor t.cfg.succ_group_size in
    let cw = collect Ring.successor t.cfg.pred_group_size in
    let is_dead _ (p : Pointer.t) = Id.equal p.Pointer.dst id in
    List.iter
      (fun (pv : Vnode.t) ->
        let head_was_dead =
          match Vnode.first_succ pv with
          | Some (p : Pointer.t) -> Id.equal p.Pointer.dst id
          | None -> false
        in
        let dropped = Vnode.drop_pointers_if pv is_dead in
        if dropped > 0 || head_was_dead then begin
          let _ = charge_spf t Metrics.Teardown gateway pv.Vnode.hosted_at in
          (* Hand over the departed vnode's successors. *)
          Array.iter
            (fun (sp : Pointer.t) ->
              let sv = vnode_or_gone t sp.Pointer.dst in
              if sv.Vnode.alive then
                match
                  make_pointer t Pointer.Successor ~from_router:pv.Vnode.hosted_at
                    ~dst:sp.Pointer.dst ~dst_router:sv.Vnode.hosted_at
                with
                | Some fresh -> Vnode.add_succ pv fresh ~max_group:t.cfg.succ_group_size
                | None -> ())
            vn.Vnode.succ_ptrs;
          if head_was_dead then repair_successor t pv
        end)
      ccw;
    List.iter
      (fun (sv : Vnode.t) ->
        let head_was_dead =
          match Vnode.first_pred sv with
          | Some (p : Pointer.t) -> Id.equal p.Pointer.dst id
          | None -> false
        in
        let dropped = Vnode.drop_pointers_if sv is_dead in
        if dropped > 0 || head_was_dead then begin
          let _ = charge_spf t Metrics.Teardown gateway sv.Vnode.hosted_at in
          List.iter
            (fun (pp : Pointer.t) ->
              let pv = vnode_or_gone t pp.Pointer.dst in
              if pv.Vnode.alive then
                match
                  make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at
                    ~dst:pp.Pointer.dst ~dst_router:pv.Vnode.hosted_at
                with
                | Some fresh -> Vnode.add_pred sv fresh ~max_group:t.cfg.pred_group_size
                | None -> ())
            vn.Vnode.preds;
          if head_was_dead then repair_predecessor t sv
        end)
      cw;
    Ok ()

(* -- partition merge ----------------------------------------------------- *)

let rejoin_ring t (vn : Vnode.t) ~category =
  let gateway = vn.Vnode.hosted_at in
  let res =
    lookup ~exclude:vn.Vnode.id t ~from:gateway ~target:vn.Vnode.id ~category
      ~use_cache:true
  in
  match res.status with
  | Predecessor pred when not (Id.equal pred.Vnode.id vn.Vnode.id) ->
    Vnode.set_succs vn [];
    Vnode.set_preds vn [];
    res.msgs + splice_stable t ~gateway vn pred
  | Predecessor _ | Delivered _ | Stuck _ -> res.msgs

(* Ring-order stabilisation: the zero-ID repairs its successor, "who in turn
   repair their successors, and so on until the rings are merged" (§3.2).
   Every member whose successor pointer disagrees with the per-component
   expectation re-points, charging one round trip; groups are pruned of dead
   entries.  Returns messages charged. *)
let stabilize t ~category =
  let before = Metrics.total t.metrics in
  (* One predicate for the sweep: it is handed each holder. *)
  let dead (holder : Vnode.t) (p : Pointer.t) =
    Id.equal p.Pointer.dst holder.Vnode.id
    || not (live_and_reachable t ~from:holder.Vnode.hosted_at p.Pointer.dst)
  in
  Ring.iter
    (fun _ (vn : Vnode.t) ->
      if vn.Vnode.alive then begin
        ignore (Vnode.drop_pointers_if vn dead);
        let c = oracle_successor_of t vn in
        if not (Ring.cursor_is_none c) then begin
          let (sv : Vnode.t) = Ring.value_at t.oracle c in
          let sid = sv.Vnode.id in
          let ok =
            Vnode.succ_count vn > 0 && Id.equal vn.Vnode.succ_ptrs.(0).Pointer.dst sid
          in
          if not ok then begin
            (match
               make_pointer t Pointer.Successor ~from_router:vn.Vnode.hosted_at ~dst:sid
                 ~dst_router:sv.Vnode.hosted_at
             with
             | Some p ->
               Vnode.add_succ vn p ~max_group:t.cfg.succ_group_size;
               let _ = charge_spf t category vn.Vnode.hosted_at sv.Vnode.hosted_at in
               let _ = charge_spf t category sv.Vnode.hosted_at vn.Vnode.hosted_at in
               (match
                  make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at
                    ~dst:vn.Vnode.id ~dst_router:vn.Vnode.hosted_at
                with
                | Some bp -> Vnode.add_pred sv bp ~max_group:t.cfg.pred_group_size
                | None -> ())
             | None -> ())
          end
        end
      end)
    t.oracle;
  Metrics.total t.metrics - before
