module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Asgraph = Rofl_asgraph.Asgraph
module Metrics = Rofl_netsim.Metrics
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Sourceroute = Rofl_core.Sourceroute

type peering_mode = No_peering | Virtual_as | Bloom_filters

type strategy = Ephemeral | Single_homed | Multihomed | Peering

type config = {
  finger_budget : int;
  cache_capacity : int;
  peering_mode : peering_mode;
  bloom_fpr : float;
  dedup_lookups : bool;
  fingers_root_only : bool;
}

let default_config =
  {
    finger_budget = 0;
    cache_capacity = 0;
    peering_mode = Virtual_as;
    bloom_fpr = 0.01;
    dedup_lookups = true;
    fingers_root_only = false;
  }

type host = {
  id : Id.t;
  home_as : int;
  strategy : strategy;
  home_route : Sourceroute.t;
  joined : Level.t list;
  mutable fingers : (Level.t * Id.t) list;
  mutable alive_h : bool;
}

type walk_scratch = {
  mutable as_path : int array;
  mutable as_path_len : int;
  peer_slot0 : int array;
  tried : int array;
  mutable walk_stamp : int;
}

type t = {
  ctx : Level.ctx;
  cfg : config;
  rng : Prng.t;
  rings : host Ring.t array;
  unjoined : host Ring.t;
  as_level_memo : Level.t list array;
  hosts : (Id.t, host) Hashtbl.t;
  resident_rings : host Ring.t array;
  caches : Pointer_cache.t array;
  bloom_counts : int array;
  failed_as : (int, unit) Hashtbl.t;
  metrics : Metrics.t;
  walk : walk_scratch;
}

(* Only bloom-filter peering consults peers' filters, so only it numbers
   the peering links: AS [a]'s [k]th peer (in [Asgraph.peers] order) is
   slot [peer_slot0.(a) + k]. *)
let walk_scratch cfg g =
  let peer_slot0, tried =
    match cfg.peering_mode with
    | Bloom_filters ->
      let n = Asgraph.n g in
      let slot0 = Array.make (n + 1) 0 in
      for a = 0 to n - 1 do
        slot0.(a + 1) <- slot0.(a) + List.length (Asgraph.peers g a)
      done;
      (slot0, Array.make slot0.(n) 0)
    | No_peering | Virtual_as -> ([||], [||])
  in
  { as_path = Array.make 32 0; as_path_len = 0; peer_slot0; tried; walk_stamp = 0 }

let create ?(cfg = default_config) ~rng g =
  let n = Asgraph.n g in
  let ctx = Level.make_ctx g in
  let unjoined = Ring.create () in
  {
    ctx;
    cfg;
    rng;
    rings = Array.make (Level.key ctx Level.Root + 1) unjoined;
    unjoined;
    as_level_memo = Array.make n [];
    hosts = Hashtbl.create 4096;
    resident_rings = Array.make n unjoined;
    caches = Array.init n (fun _ -> Pointer_cache.create ~capacity:cfg.cache_capacity);
    bloom_counts = Array.make n 0;
    failed_as = Hashtbl.create 8;
    metrics = Metrics.create ~routers:n;
    walk = walk_scratch cfg g;
  }

(* Slot [k]'s own ring, made on first use in place of [unjoined]. *)
let own t rings k =
  let r = rings.(k) in
  if r != t.unjoined then r
  else begin
    let r = Ring.create () in
    rings.(k) <- r;
    r
  end

let ring t level = own t t.rings (Level.key t.ctx level)

let as_alive t a = not (Hashtbl.mem t.failed_as a)

let locate t id =
  match Hashtbl.find_opt t.hosts id with
  | Some h when h.alive_h -> Some h.home_as
  | Some _ | None -> None

let host_count t = Hashtbl.length t.hosts

let live_hosts t =
  Ring.to_list (ring t Level.Root)
  |> List.filter_map (fun (_, h) -> if h.alive_h then Some h else None)
  |> Array.of_list

let strategy_to_string = function
  | Ephemeral -> "ephemeral"
  | Single_homed -> "single-homed"
  | Multihomed -> "rec-multihomed"
  | Peering -> "peering"

let effective_levels t x strategy =
  match strategy with
  | Ephemeral -> [ Level.Root ]
  | Single_homed -> Level.single_homed_chain t.ctx x
  | Multihomed -> Level.levels_for_real t.ctx x
  | Peering ->
    (match t.cfg.peering_mode with
     | Virtual_as ->
       (* Real levels bottom-up, then the peer-group levels, then Root. *)
       let reals =
         List.filter (fun l -> not (Level.equal l Level.Root))
           (Level.levels_for_real t.ctx x)
       in
       reals @ Level.peer_levels t.ctx x @ [ Level.Root ]
     | No_peering | Bloom_filters -> Level.levels_for_real t.ctx x)

let as_levels t x =
  match t.as_level_memo.(x) with
  | _ :: _ as ls -> ls
  | [] ->
    let reals =
      List.filter (fun l -> not (Level.equal l Level.Root)) (Level.levels_for_real t.ctx x)
    in
    let ls =
      match t.cfg.peering_mode with
      | Virtual_as -> reals @ Level.peer_levels t.ctx x @ [ Level.Root ]
      | No_peering | Bloom_filters -> reals @ [ Level.Root ]
    in
    t.as_level_memo.(x) <- ls;
    ls

(* A join leg of [d] AS hops costs [d] messages, or one when both ends
   are the same AS; a leg between ASes the level does not connect is not
   sent.  Only the count is charged: no reader asks the interdomain
   registry for per-AS load. *)
let charge_leg t category d =
  let msgs = max d 1 in
  Metrics.incr t.metrics category msgs;
  msgs

(* [h]'s pointer, cached at [as_idx] unless that is [h]'s home. *)
let cache_insert t as_idx (h : host) =
  if t.cfg.cache_capacity > 0 && as_idx <> h.home_as then
    Pointer_cache.insert t.caches.(as_idx) Pointer.Cached ~dst:h.id ~dst_router:h.home_as
      ~route:h.home_route ~start:0

(* An AS's filter summarises exactly the live identifiers homed in its
   customer cone, so membership is a cone test; only the count is kept, for
   the state cost. *)
let bloom_check t a ~home =
  (t.cfg.peering_mode = Bloom_filters
  && home >= 0
  && Asgraph.in_cone (Level.graph t.ctx) ~root:a home)
  || Prng.float t.rng 1.0 < t.cfg.bloom_fpr

(* The state cost model: ~1% fpr costs ~9.6 bits per summarised identifier. *)
let bloom_bits_per_entry = 10.0

let bloom_state_bits t a = bloom_bits_per_entry *. float_of_int t.bloom_counts.(a)

let count_in_blooms t home delta =
  match t.cfg.peering_mode with
  | Bloom_filters ->
    List.iter
      (fun a -> t.bloom_counts.(a) <- t.bloom_counts.(a) + delta)
      (Asgraph.up_hierarchy (Level.graph t.ctx) home)
  | No_peering | Virtual_as -> ()

(* Anchor distance for bootstrapping into an empty level: the registration
   with the provider chain (§4.1 Joining). *)
let anchor_distance t x level =
  match level with
  | Level.Real a -> (match Level.up_distance t.ctx x a with Some d -> max d 1 | None -> 1)
  | Level.Peer_group v ->
    List.fold_left
      (fun acc m ->
        match Level.up_distance t.ctx x m with
        | Some d -> min acc (max d 1)
        | None -> acc)
      3 (Level.vas_members t.ctx v)
  | Level.Root ->
    let tier1 = Asgraph.tier1s (Level.graph t.ctx) in
    List.fold_left
      (fun acc a ->
        match Level.up_distance t.ctx x a with Some d -> min acc (max d 1) | None -> acc)
      4 tier1

type join_outcome = { host : host; lookup_msgs : int; finger_msgs : int }

let two_pow_jump k = Id.of_int64_pair (Int64.shift_left 1L (63 - k)) 0L
(* 2^(127-k) for k in [0, 63]: the Chord finger spans used per level. *)

let acquire_fingers t (h : host) =
  let budget = t.cfg.finger_budget in
  if budget <= 0 then 0
  else begin
    let msgs = ref 0 in
    let have = Hashtbl.create 32 in
    let levels =
      if t.cfg.fingers_root_only then [| Level.Root |] else Array.of_list h.joined
    in
    let nlevels = Array.length levels in
    let exhausted = Array.make nlevels false in
    let pass = ref 0 in
    (* Round-robin over levels bottom-up: pass k tries each level's k-th
       finger span, preferring lower levels (the isolation-preserving
       lowest-level rule for finger placement, §4.1). *)
    let continue_ = ref true in
    while !continue_ && Hashtbl.length have < budget && !pass < 64 do
      let progressed = ref false in
      Array.iteri
        (fun i level ->
          if (not exhausted.(i)) && Hashtbl.length have < budget then begin
            let r = ring t level in
            if Ring.cardinal r < 3 then exhausted.(i) <- true
            else begin
              let target = Id.add h.id (two_pow_jump !pass) in
              match Ring.successor_incl target r with
              | Some (fid, fh) when (not (Id.equal fid h.id)) && fh.alive_h ->
                if not (Hashtbl.mem have (Level.key t.ctx level, fid)) then begin
                  Hashtbl.add have (Level.key t.ctx level, fid) ();
                  h.fingers <- (level, fid) :: h.fingers;
                  incr msgs;
                  Metrics.incr t.metrics Metrics.Finger 1;
                  progressed := true
                end
              | Some _ | None -> exhausted.(i) <- true
            end
          end)
        levels;
      incr pass;
      if not !progressed then continue_ := false
    done;
    !msgs
  end

(* [h]'s pointer at every AS of the last {!Level.route_within} path. *)
let cache_along t (h : host) =
  if t.cfg.cache_capacity > 0 then
    for i = 0 to Level.path_length t.ctx - 1 do
      cache_insert t (Level.path_hop t.ctx i) h
    done

(* Predecessor lookup at a level [r] already holding a successor
   [succ_h]: request towards the predecessor's AS and reply back, plus one
   successor notification (Algorithm 3).  Returns the messages charged. *)
let lookup_and_notify t (h : host) level r (succ_h : host) =
  let pc = Ring.cursor_lt h.id r in
  let msgs =
    if Ring.cursor_is_none pc then 0
    else begin
      let pred_h = Ring.value_at r pc in
      let d = Level.route_within t.ctx level h.home_as pred_h.home_as in
      if d < 0 then 0
      else begin
        (* The reply retraces the request, and a level's route cost is
           symmetric, so it costs the same. *)
        let msgs = charge_leg t Metrics.Join d in
        ignore (charge_leg t Metrics.Join_reply d);
        cache_along t h;
        cache_along t pred_h;
        2 * msgs
      end
    end
  in
  let d = Level.distance_within t.ctx level h.home_as succ_h.home_as in
  if d < 0 then msgs else msgs + charge_leg t Metrics.Join d

(* Joins [h] at each level in turn and returns the lookup messages.  With
   [dedup], a level whose successor is the previous level's ([prev_succ],
   meaningful once [has_prev]) is not looked up again. *)
let rec join_levels t (h : host) ~dedup ~has_prev prev_succ msgs = function
  | [] -> msgs
  | level :: rest ->
    let r = ring t level in
    let sc = Ring.cursor_gt h.id r in
    if Ring.cursor_is_none sc then begin
      (* First member at this level: bootstrap registration. *)
      let d = anchor_distance t h.home_as level in
      Metrics.incr t.metrics Metrics.Join d;
      Ring.add h.id h r;
      join_levels t h ~dedup ~has_prev prev_succ (msgs + d) rest
    end
    else begin
      let sid = Ring.id_at r sc and succ_h = Ring.value_at r sc in
      let msgs =
        if dedup && has_prev && Id.equal prev_succ sid then msgs
        else msgs + lookup_and_notify t h level r succ_h
      in
      Ring.add h.id h r;
      join_levels t h ~dedup ~has_prev:true sid msgs rest
    end

let join_with_levels t ~as_idx ~id ~strategy ~levels =
  if Hashtbl.mem t.hosts id then Error "identifier already joined"
  else if not (as_alive t as_idx) then Error "home AS is down"
  else begin
    let h =
      {
        id;
        home_as = as_idx;
        strategy;
        home_route = Sourceroute.singleton as_idx;
        joined = levels;
        fingers = [];
        alive_h = true;
      }
    in
    let dedup =
      t.cfg.dedup_lookups
      && (match strategy with Multihomed | Peering -> true | Ephemeral | Single_homed -> false)
    in
    let lookup_msgs = join_levels t h ~dedup ~has_prev:false id 0 levels in
    Hashtbl.replace t.hosts id h;
    Ring.add id h (own t t.resident_rings as_idx);
    (* Bloom aggregation: the ID is summarised at every AS above it. *)
    count_in_blooms t as_idx 1;
    let finger_msgs = acquire_fingers t h in
    Ok { host = h; lookup_msgs; finger_msgs }
  end

let join_id t ~as_idx ~id ~strategy =
  join_with_levels t ~as_idx ~id ~strategy ~levels:(effective_levels t as_idx strategy)

let join t ~as_idx ~strategy =
  let rec fresh () =
    let id = Id.random t.rng in
    match join_id t ~as_idx ~id ~strategy with
    | Ok outcome -> outcome
    | Error _ -> fresh ()
  in
  fresh ()

let remove_host t id =
  match Hashtbl.find_opt t.hosts id with
  | None -> 0
  | Some h ->
    let before = Metrics.total t.metrics in
    (* Per-level teardown: notify the neighbours that lose a pointer; nested
       levels usually share them, so distinct (pred, succ) pairs only. *)
    let seen = Hashtbl.create 8 in
    List.iter
      (fun level ->
        let r = ring t level in
        let pc = Ring.cursor_lt id r and sc = Ring.cursor_gt id r in
        if not (Ring.cursor_is_none pc || Ring.cursor_is_none sc) then begin
          let pid = Ring.id_at r pc and sid = Ring.id_at r sc in
          if (not (Id.equal pid sid)) && not (Hashtbl.mem seen (pid, sid)) then begin
            Hashtbl.add seen (pid, sid) ();
            let d =
              Level.distance_within t.ctx level h.home_as (Ring.value_at r pc).home_as
            in
            if d >= 0 then ignore (charge_leg t Metrics.Teardown d)
          end
        end;
        Ring.remove id r)
      h.joined;
    h.alive_h <- false;
    Hashtbl.remove t.hosts id;
    Ring.remove id t.resident_rings.(h.home_as);
    count_in_blooms t h.home_as (-1);
    Array.iter (fun c -> Pointer_cache.remove c id) t.caches;
    Metrics.total t.metrics - before
