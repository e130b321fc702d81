module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Pool = Rofl_util.Pool
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Engine = Rofl_netsim.Engine
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
module Identity = Rofl_crypto.Identity

(* Protocol tables hashed without [caml_hash] on identifiers and without
   polymorphic compare on either key. *)
module Idtbl = Hashtbl.Make (struct type t = Id.t let equal = Id.equal let hash = Id.hash end)

module Inttbl = Hashtbl.Make (Int)

type pointer = Id.t * int (* identifier, hosting router *)

(* Per-router conduct policy.  Honest routers run the protocol; the rest
   model the paper's threat surface.  Behaviours only change what a router
   *says* in its own execution context — they never reach across shards —
   so campaigns stay byte-identical at any shard count. *)
type behaviour =
  | Honest
  | Drop_lookups  (** byzantine silence: swallow every lookup it handles *)
  | Misroute      (** answer lookups with its own best resident as "owner" *)
  | Poison_succs  (** prepend fabricated backups to stabilisation replies,
                      and vouch for those ghosts when they are probed *)

(* Fixed protocol constants: no experiment varies them. *)
let succ_list_len = 4 (* successor-list redundancy: succ + 3 backups *)
let rpc_timeout_ms = 100.0 (* base timeout of a stabilisation probe *)
let rpc_retries = 2 (* probe retries before declaring the successor dead *)
let rpc_backoff = 2.0 (* timeout multiplier per retry of any RPC *)
let pred_timeout_ms = 600.0 (* silence after which a predecessor is presumed dead *)
let join_retries = 4 (* join attempts after the first before giving up *)
let lookup_retries = 3 (* lookup attempts after the first before failing *)
let stuck_wait_ms = 5.0 (* wait before re-probing a mid-join candidate *)
let stuck_wait_limit = 3 (* waits before presuming the candidate dead *)
let pcache_refresh_ttl_ms = 400.0 (* entry age the refresh manager re-validates *)
let pcache_refresh_budget = 4 (* refresh probes per router per sweep *)

type config = {
  stabilize_period_ms : float;
  join_timeout_ms : float;
  lookup_timeout_ms : float;
  untwist : bool;
  lookup_alpha : int;
  pcache_capacity : int;
  stabilize_auto : bool;
  verify_joins : bool;
      (** challenge/response identifier verification at the join gateway and
          on successor-list failover promotion (paper §2.1 self-certifying
          labels).  On by default; the off position exists for the attack
          lab's defense-off cells and for measuring verification cost. *)
  succ_quota : int;
      (** declared per-PoP share of *admitted* (joined) entries in a
          successor-list backup tail (and of pointer-cache admissions);
          infrastructure entries — a router's own label hosted at itself —
          are exempt.  0 = no quota rule.  The rule is what the doctor's
          eclipse-saturation check audits; whether the protocol also
          *enforces* it is [quota_enforce]. *)
  quota_enforce : bool;
      (** enforce [succ_quota] at every successor-list adoption and
          pointer-cache admission (the Kademlia IP-group-quota defense,
          keyed by PoP).  Meaningless unless [succ_quota > 0] and the
          instance was created with router groups. *)
}

let default_config =
  {
    stabilize_period_ms = 50.0;
    join_timeout_ms = 400.0;
    lookup_timeout_ms = 300.0;
    untwist = true;
    lookup_alpha = 1;
    pcache_capacity = 0;
    stabilize_auto = false;
    verify_joins = true;
    succ_quota = 0;
    quota_enforce = false;
  }

(* Every message is one flat block: a pointer travels as an identifier and
   its hosting router, router -1 standing for "none" (the identifier is then
   meaningless), and a successor group as two columns, identifiers and their
   routers, nearest first.  Only [avoid] stays a list: it is [[]] unless a
   request has found a candidate dead. *)
type message =
  | Join_req of {
      joining : Id.t;
      gateway : int;
      chasing_id : Id.t;        (** the candidate this request is committed to *)
      chasing_router : int;     (** its router; -1 until the first commitment *)
      avoid : Id.t list;        (** candidates found dead by this request *)
      waited : int;             (** consecutive waits for a mid-join candidate *)
    }
  | Join_resp of {
      joining : Id.t;
      pred_id : Id.t;
      pred_router : int;
      succ_id : Id.t;
      succ_router : int;
      list_ids : Id.t array;    (* the predecessor's backups before the splice *)
      list_routers : int array;
    }
  | Get_pred of { asker : Id.t; asker_router : int; target : Id.t; token : int }
  | Pred_info of {
      of_id : Id.t;
      pred_id : Id.t;
      pred_router : int;
      list_ids : Id.t array;    (* the probed member's succ, then its backups *)
      list_routers : int array;
      to_id : Id.t;
      token : int;
    }
  | Notify of { candidate : Id.t; candidate_router : int; target : Id.t }
  | Leave_pred of {
      departing : Id.t;
      to_id : Id.t;
      new_succ_id : Id.t;
      new_succ_router : int;
      list_ids : Id.t array;
      list_routers : int array;
    }
  | Leave_succ of { departing : Id.t; to_id : Id.t; new_pred_id : Id.t; new_pred_router : int }
  | Lookup_req of {
      target : Id.t;
      origin : int;
      token : int;
      chasing_id : Id.t;
      chasing_router : int;
      avoid : Id.t list;
      waited : int;
      hops : int; (** link traversals charged to this branch so far *)
    }
  | Lookup_resp of { token : int; owner_id : Id.t; owner_router : int; hops : int }
  | Verify_req of {
      claimant : Id.t;        (** identifier whose residency is challenged *)
      asker_router : int;
      token : int;
      challenge : Identity.challenge;
    }
  | Verify_resp of { token : int; resp : Identity.response option }
  (* The two timers a router schedules on its own queue.  A stabilisation
     probe's RPC timeout is the common one and carries its state as data;
     rarer timers (join and lookup timeouts, lookup retries, promotion
     challenges) keep a closure. *)
  | Probe_timeout of { rid : Id.t; sid : Id.t; srouter : int; token : int; attempt : int }
  | Timer of (unit -> unit)

type stats = {
  messages : int;
  joins_completed : int;
  stabilize_rounds : int;
  joins_failed : int;
  leaves_completed : int;
  moves_completed : int;
  crashes : int;
  failovers : int;
  rpc_timeouts : int;
  join_retries : int;
  lookup_retries : int;
  join_rejects : int;
  promo_rejects : int;
}

type lookup_outcome = {
  target : Id.t;
  issued_ms : float;
  completed_ms : float;
  ok : bool;
  attempts : int;
}

type join_state = { gateway : int; mutable join_attempts : int; mutable completed : bool }

type lookup_state = {
  origin : int;
  lk_target : Id.t;
  lk_issued : float;
  mutable lk_attempts : int;
  mutable lk_token : int;      (* primary-branch token of the current attempt *)
  mutable lk_tokens : int list; (* all branch tokens of the current attempt *)
  mutable lk_outstanding : int; (* branches not yet answered this attempt *)
  mutable finished : bool;
  cb : lookup_outcome -> unit;
}

(* ---- per-router pointer cache -------------------------------------------

   A flat fixed-capacity cache of owner pointers learned from lookup
   responses: (identifier, hosting router, install time).  Deliberately not
   [Rofl_core.Pointer_cache] — the α engine needs entry ages for the refresh
   manager and allocation-free linear probes, and at the capacities used
   here (tens of entries) a flat scan beats the ordered index.  Each cache
   belongs to one router and is only mutated from that router's execution
   context, so it shards exactly like the resident store. *)

module Pcache = struct
  type t = {
    cap : int;
    ids : Id.t array;
    routers : int array;
    stamp : float array;
    mutable len : int;
    quota : int;        (* max entries per router group, 0 = unbounded *)
    groups : int array; (* router -> group, [||] = ungrouped *)
  }

  let create ?(quota = 0) ?(groups = [||]) cap dummy =
    {
      cap;
      ids = Array.make (max cap 1) dummy;
      routers = Array.make (max cap 1) (-1);
      stamp = Array.make (max cap 1) 0.0;
      len = 0;
      quota;
      groups;
    }

  let find c id =
    let rec go i = if i >= c.len then -1 else if Id.equal c.ids.(i) id then i else go (i + 1) in
    go 0

  (* Would admitting a pointer hosted at [router] keep its group within the
     quota?  [except] is a slot about to be vacated (eviction or update) and
     is not counted.  Linear over the cache — tens of entries. *)
  let admit_ok c ~except router =
    c.quota <= 0 || Array.length c.groups = 0
    ||
    let g = c.groups.(router) in
    let cnt = ref 0 in
    for j = 0 to c.len - 1 do
      if j <> except && c.groups.(c.routers.(j)) = g then incr cnt
    done;
    !cnt < c.quota

  let group_quota_ok c =
    c.quota <= 0 || Array.length c.groups = 0
    ||
    let ok = ref true in
    for i = 0 to c.len - 1 do
      let g = c.groups.(c.routers.(i)) in
      let cnt = ref 0 in
      for j = 0 to c.len - 1 do
        if c.groups.(c.routers.(j)) = g then incr cnt
      done;
      if !cnt > c.quota then ok := false
    done;
    !ok

  (* Evict the oldest entry (lowest stamp, ties to the lowest index) — a
     deterministic stand-in for LRU that needs no recency links.  With a
     group quota, admissions that would over-concentrate one group are
     refused outright (the Kademlia IP-quota rule): concentration is the
     attack, so a full group keeps its existing entries rather than churn
     them for the newcomer. *)
  let insert c ~now id router =
    if c.cap > 0 then begin
      let i = find c id in
      if i >= 0 then begin
        if c.routers.(i) = router || admit_ok c ~except:i router then begin
          c.routers.(i) <- router;
          c.stamp.(i) <- now
        end
      end
      else begin
        let slot =
          if c.len < c.cap then c.len
          else begin
            let oldest = ref 0 in
            for j = 1 to c.len - 1 do
              if c.stamp.(j) < c.stamp.(!oldest) then oldest := j
            done;
            !oldest
          end
        in
        let except = if c.len < c.cap then -1 else slot in
        if admit_ok c ~except router then begin
          if c.len < c.cap then c.len <- c.len + 1;
          c.ids.(slot) <- id;
          c.routers.(slot) <- router;
          c.stamp.(slot) <- now
        end
      end
    end

  let remove_at c i =
    (* Shift down to keep scan order deterministic under refreshes. *)
    for j = i to c.len - 2 do
      c.ids.(j) <- c.ids.(j + 1);
      c.routers.(j) <- c.routers.(j + 1);
      c.stamp.(j) <- c.stamp.(j + 1)
    done;
    c.len <- c.len - 1

  (* The cached identifier closest to [target] (clockwise from the entry to
     the target), i.e. the best diversified start for a greedy walk.
     Returns the entry index, or -1.  Allocation-free. *)
  let best_toward c ~target =
    let best = ref (-1) in
    for i = 0 to c.len - 1 do
      if
        !best < 0
        || Id.compare_dist c.ids.(i) target c.ids.(!best) target < 0
      then best := i
    done;
    !best
end

(* ---- stale-successor oracle: logged events, replayed at sync points ----

   The seed instrumented stale windows inline: an O(residents) sweep at
   every departure and a membership probe at every pointer write.  Both
   reach across the whole simulation and would race under sharding, so each
   shard instead appends repoint/join facts to a private log and departures
   are recorded globally; [sync_oracle] merges the logs in a K-independent
   order (time, then join < repoint < departure, then identifier) and
   replays the seed's marking rules over a compact mirror of the ring. *)

type oev =
  | O_join of float * Id.t
  | O_repoint of float * Id.t * Id.t option (* holder, new successor id *)
  | O_raw of float * Id.t * Id.t option     (* injected fault: never closes *)

type rstate = {
  mutable o_mem : bool;
  mutable o_succ : Id.t option;
  mutable o_pointed : Id.t list; (* holders whose successor pointer is this id *)
  mutable o_ever : bool;
      (* ever admitted as a member (bootstrap or a join that was accepted).
         Set directly from global context at admission, not via the logs:
         a spliced-but-unacknowledged join must already count, or the
         doctor's poison-residency check would flag in-flight joins.
         Fabricated successor-list entries never pass through admission,
         so [o_ever = false] on a pointed-at identifier is attack evidence. *)
}

type oracle = {
  ostates : (Id.t, rstate) Hashtbl.t;
  omarks : (Id.t, float) Hashtbl.t; (* holder -> stale since *)
  mutable owindows : float list;    (* closed durations, newest first *)
}

(* ---- per-shard state ----------------------------------------------------

   Everything a shard's events touch lives here: the resident store for its
   routers, the id -> slot index, a private link-state view (its Dijkstra
   caches are mutable), metrics, RPC state tables and counters.  Counter
   values are sums of per-event increments, so aggregating them over shards
   is partition-independent; tokens only ever meet their own shard's
   tables.  [joins] is keyed by identifier alone, so a join response
   completes only the join whose gateway received it; else the shard count
   would decide whether a stale one completes a moved identifier's join. *)

(* An in-flight failover-promotion verification: the challenged candidate,
   the challenge sent, and the continuation to run on the verdict.  Lives in
   the asker's shard, keyed by token like the other RPC tables. *)
type verify_state = {
  v_claimed : Id.t;
  v_challenge : Identity.challenge;
  mutable v_done : bool;
  v_k : bool -> unit;
}

type shard_state = {
  sx : int;
  store : Store.t;
  where : int Idtbl.t; (* id -> slot, for residents of this shard *)
  s_ls : Linkstate.t;
  s_latency : float array; (* [send_direct]'s pricing register *)
  s_metrics : Metrics.t;
  probes : unit Inttbl.t; (* outstanding stabilisation RPC tokens *)
  joins : (Id.t, join_state) Hashtbl.t;
  lookups : lookup_state Inttbl.t;
  verifies : verify_state Inttbl.t;
  mutable olog : oev list; (* oracle events, newest first *)
  mutable next_token : int;
  mutable lookups_open : int;
  mutable ranked : Id.t; (* [rank]'s result register *)
  mutable ranked_d : int; (* [ranked]'s clockwise key distance to the target *)
}

type t = {
  graph : Graph.t;
  cfg : config;
  coord : message Shard.t;
  nshards : int;
  shard_of : int array; (* router -> shard, contiguous ranges *)
  (* Per-router monotone sequence counters: every scheduled event is keyed
     by (time, acting router, seq), so the merged execution order is a
     function of the workload alone, not of the shard count. *)
  rails : int array;
  sh : shard_state array;
  pool : Pool.t option;
  oracle : oracle;
  pcaches : Pcache.t array; (* per router; [||] when the cache is disabled *)
  behaviours : behaviour array; (* per router; mutate from global context only *)
  groups : int array; (* router -> PoP/AS group for quotas; [||] = ungrouped *)
  (* Identifiers admitted although their claim would not have survived
     verification (only possible with [verify_joins = false]) — the
     forged-admission audit's ground truth.  Written from global context
     (join/admission) only; read anywhere. *)
  tainted : (Id.t, unit) Hashtbl.t;
  (* Credential presented at admission, so the hosting router can answer
     promotion challenges for its residents.  Bootstrap labels fall back to
     the canonical credential.  Written from global context only. *)
  creds : (Id.t, Identity.keypair) Hashtbl.t;
  mutable departs : (float * Id.t) list; (* oracle: departures, newest first *)
  mutable stab_on : bool;
  mutable rounds : int;
  mutable leaves_done : int;
  mutable moves_done : int;
  mutable crashes_done : int;
  (* Self-tuning stabilisation (auto mode): the network-size estimate, the
     EWMA churn-rate estimate it is normalised by, and the derived knobs. *)
  mutable auto_nhat : float;     (* median per-resident N estimate *)
  mutable auto_rate : float;     (* EWMA deaths per member per ms *)
  mutable auto_mult : float;     (* period multiplier, 1..16 *)
  mutable auto_sl_limit : int;   (* successor-list backup target *)
  mutable auto_last_deaths : int;
  mutable auto_last_ms : float;
  mutable auto_rounds : int;
  mutable refresh_on : bool;
}

(* Deterministic, well-spread default identifier per router.  A seeded PRNG
   draw keeps this library independent of rofl_crypto. *)
let router_label i =
  let g = Prng.create (0x5EED + i) in
  Id.random g

(* ---- shard plumbing ----------------------------------------------------- *)

let shd t router = t.sh.(t.shard_of.(router))

(* Simulated time in the calling context: the clock of the engine owning
   [router]'s shard — the event's own time inside a window, the merged
   barrier clock from global context (all engines parked there). *)
let now_at t router = Engine.now (Shard.engine t.coord t.shard_of.(router))

let fresh_token sh =
  let tok = sh.next_token in
  sh.next_token <- tok + 1;
  tok

(* Schedule [m] for router [at] (the entry's int) on its shard under the
   content-derived key [(time, rail, seq)].  [rail] must be the router in
   whose execution context this call is made (the acting router), so its
   sequence counter is bumped in a deterministic, K-independent order. *)
let[@inline] sched t ~rail ~at ~time_ms m =
  let seq = t.rails.(rail) in
  t.rails.(rail) <- seq + 1;
  Shard.send t.coord ~src:t.shard_of.(rail) ~dst:t.shard_of.(at) ~time_ms ~rail
    ~seq ~arg:at m

(* The slot of [rid] resident at [router], or -1. *)
let find_slot t router rid =
  let sh = shd t router in
  match Idtbl.find sh.where rid with
  | s when Store.owner sh.store s = router -> s
  | _ -> -1
  | exception Not_found -> -1

let locate_slot t rid =
  let k = Array.length t.sh in
  let rec go i =
    if i >= k then None
    else
      match Idtbl.find_opt t.sh.(i).where rid with
      | Some s -> Some (t.sh.(i), s)
      | None -> go (i + 1)
  in
  go 0

let is_member t rid = locate_slot t rid <> None

let coordinator t = t.coord

let shard_count t = t.nshards

let shard_of_router t router = t.shard_of.(router)

let metrics t =
  let m = Metrics.create ~routers:(Graph.n t.graph) in
  Array.iter (fun sh -> Metrics.merge_into ~dst:m sh.s_metrics) t.sh;
  m

let config t = t.cfg

let lookups_outstanding t =
  Array.fold_left (fun acc sh -> acc + sh.lookups_open) 0 t.sh

(* ---- oracle replay ------------------------------------------------------ *)

let ostate t id =
  match Hashtbl.find_opt t.oracle.ostates id with
  | Some st -> st
  | None ->
    let st = { o_mem = false; o_succ = None; o_pointed = []; o_ever = false } in
    Hashtbl.replace t.oracle.ostates id st;
    st

(* Was this identifier ever admitted (bootstrap, or a join that passed the
   gateway)?  No oracle sync needed: admission marks the bit directly from
   global context.  A pointed-at identifier that was never admitted can only
   come from a fabricated protocol message — the poison-residency signal. *)
let ever_member t id =
  match Hashtbl.find_opt t.oracle.ostates id with
  | Some st -> st.o_ever
  | None -> false

let o_unpoint t holder =
  let hst = ostate t holder in
  (match hst.o_succ with
   | Some old ->
     let ost = ostate t old in
     ost.o_pointed <- List.filter (fun h -> not (Id.equal h holder)) ost.o_pointed
   | None -> ());
  hst.o_succ <- None

let o_point t holder succ =
  o_unpoint t holder;
  (ostate t holder).o_succ <- succ;
  match succ with
  | Some s ->
    let ost = ostate t s in
    ost.o_pointed <- holder :: ost.o_pointed
  | None -> ()

(* A holder whose successor pointer names a departed identifier is "stale"
   from the departure until the pointer is repointed at a live member. *)
let o_depart t time id =
  let st = ostate t id in
  st.o_mem <- false;
  Hashtbl.remove t.oracle.omarks id;
  o_unpoint t id;
  List.iter
    (fun h ->
      if not (Hashtbl.mem t.oracle.omarks h) then
        Hashtbl.replace t.oracle.omarks h time)
    st.o_pointed

let o_repoint t time holder succ =
  o_point t holder succ;
  match succ with
  | Some s when (ostate t s).o_mem -> (
    match Hashtbl.find_opt t.oracle.omarks holder with
    | Some since ->
      t.oracle.owindows <- (time -. since) :: t.oracle.owindows;
      Hashtbl.remove t.oracle.omarks holder
    | None -> ())
  | Some _ | None -> ()

(* Merge the shard logs and the departure log into one chronological stream
   and replay it.  The order is K-independent: time first, joins before
   repoints before departures at one instant, identifiers and per-stream
   positions after that (one identifier's events never tie across shards —
   a rejoin elsewhere always completes strictly later than the departure). *)
let sync_oracle t =
  if t.departs <> [] || Array.exists (fun sh -> sh.olog <> []) t.sh then begin
    let entries = ref [] in
    Array.iteri
      (fun sx sh ->
        List.iteri
          (fun pos ev ->
            let time, rank, id =
              match ev with
              | O_join (tm, id) -> (tm, 0, id)
              | O_repoint (tm, id, _) | O_raw (tm, id, _) -> (tm, 1, id)
            in
            entries := (time, rank, id, sx, pos, Some ev) :: !entries)
          (List.rev sh.olog);
        sh.olog <- [])
      t.sh;
    List.iteri
      (fun pos (tm, id) -> entries := (tm, 2, id, -1, pos, None) :: !entries)
      (List.rev t.departs);
    t.departs <- [];
    let cmp (t1, r1, i1, s1, p1, _) (t2, r2, i2, s2, p2, _) =
      let c = Float.compare t1 t2 in
      if c <> 0 then c
      else
        let c = Int.compare r1 r2 in
        if c <> 0 then c
        else
          let c = Id.compare i1 i2 in
          if c <> 0 then c
          else
            let c = Int.compare s1 s2 in
            if c <> 0 then c else Int.compare p1 p2
    in
    List.iter
      (fun (tm, _, id, _, _, ev) ->
        match ev with
        | Some (O_join _) -> (ostate t id).o_mem <- true
        | Some (O_repoint (_, _, succ)) -> o_repoint t tm id succ
        | Some (O_raw (_, _, succ)) -> o_point t id succ
        | None -> o_depart t tm id)
      (List.sort cmp !entries)
  end

let stale_windows t =
  sync_oracle t;
  List.rev t.oracle.owindows

let stale_open t =
  sync_oracle t;
  Hashtbl.length t.oracle.omarks

let stale_open_since t =
  sync_oracle t;
  Hashtbl.fold (fun rid since acc -> (rid, since) :: acc) t.oracle.omarks []
  |> List.sort (fun (a, _) (b, _) -> Id.compare a b)

(* Every successor-pointer write funnels through here so the oracle log
   mirrors the actual ring. *)
let repoint t ~router s ptr =
  let sh = shd t router in
  sh.olog <-
    O_repoint (now_at t router, Store.rid sh.store s, Option.map fst ptr)
    :: sh.olog;
  Store.set_succ sh.store s ptr

(* ---- message transport -------------------------------------------------- *)

(* Successor lists must hold pairwise-distinct entries in strictly increasing
   clockwise distance from their holder, never the holder itself and never
   the current successor (which rides in [succ], not the backup tail).

   Inherited lists do not arrive that way: a departing member's backups are
   ordered around *its* position, not the adopter's, and in small rings they
   can even contain the adopter.  Every adoption site stages its candidates
   in the store and funnels through [adopt_staged] ({!Store.normalize}):
   drop self/succ, dedup, re-sort by distance from the new holder, apply the
   quota, truncate — written straight into the slot, no list built. *)
let succ_list_limit t =
  if t.cfg.stabilize_auto then t.auto_sl_limit else succ_list_len - 1

(* Diversity quota on the backup tail (the Kademlia IP-group-quota pattern,
   group = PoP): keep at most [succ_quota] *admitted* entries per
   hosting-router group, closest entries first.  Runs before truncation so
   entries rejected for concentration make room for farther, more diverse
   backups.  Two exemptions: the successor itself rides in [succ], outside
   the tail, and is never counted — quotas must not be able to reject the
   one true successor; and infrastructure entries (a router's own label,
   hosted at itself) pass uncounted, because their ring placement is the
   operator's topology, not an admission an attacker can mint — small rings
   legitimately have same-PoP label runs. *)
let infrastructure id router = Id.equal id (router_label router)

let adopt_staged t sh s ~self ~succ =
  Store.normalize sh.store s ~self ~succ ~limit:(succ_list_limit t)
    ~quota:(if t.cfg.quota_enforce then t.cfg.succ_quota else 0)
    ~groups:t.groups ~exempt:infrastructure

(* Stage a message's successor columns in order, leaving out entries equal
   to [skip]. *)
let stage_columns store ~skip ids routers =
  for k = 0 to Array.length ids - 1 do
    if not (Id.equal ids.(k) skip) then Store.stage store ids.(k) routers.(k)
  done

(* A message's pointer as the option the store takes. *)
let pointer_opt id router = if router < 0 then None else Some (id, router)

(* Successor-list poisoning: fabricated identifiers placed immediately
   clockwise of the probed member [target], all "hosted" at [at] — the
   asker sorts them as its closest backups.  Content-derived from the
   probed identifier, so the campaign is byte-identical at any shard count.
   Fills the first [poison_len] cells of a reply's columns. *)
let poison_len = 3

let poison ids routers ~at target =
  let p = ref target in
  for k = 0 to poison_len - 1 do
    p := Id.succ_id !p;
    ids.(k) <- !p;
    routers.(k) <- at
  done

(* Deliver a message to a router after traversing the physical path there,
   charging one message per link under [cat].  A cross-shard destination is
   reached over at least one partition-crossing link, so the delivery time
   is at least the conservative window after now — the invariant the shard
   coordinator's barriers rely on. *)
let send_direct t ~cat ~from ~dest msg =
  let sh = shd t from in
  let latency = sh.s_latency in
  latency.(0) <- 0.0;
  let links = Linkstate.price_hop_into sh.s_ls from dest ~latency 0 in
  if links >= 0 then begin
    Metrics.incr sh.s_metrics cat links;
    sched t ~rail:from ~at:dest ~time_ms:(now_at t from +. latency.(0)) msg
  end

(* ---- stabilisation probes and failover ---------------------------------- *)

(* One probe of a resident's successor, with timeout/retry/backoff; when
   every retry times out the successor is declared dead and the first live
   backup is promoted (Chord successor-list failover).  The timeout names
   (router, rid), never the slot: slots are recycled on departure, so it
   re-resolves when it fires and only acts if the resident is still here
   with the same pointer. *)
let rec send_probe t ~router rid ~sid ~srouter attempt =
  let sh = shd t router in
  let token = fresh_token sh in
  Inttbl.replace sh.probes token ();
  send_direct t ~cat:Metrics.Stabilize ~from:router ~dest:srouter
    (Get_pred { asker = rid; asker_router = router; target = sid; token });
  let timeout =
    rpc_timeout_ms *. (rpc_backoff ** float_of_int (attempt - 1))
  in
  sched t ~rail:router ~at:router ~time_ms:(now_at t router +. timeout)
    (Probe_timeout { rid; sid; srouter; token; attempt })

and probe_timeout t ~router rid ~sid ~srouter ~token attempt =
  let sh = shd t router in
  if Inttbl.mem sh.probes token then begin
    Inttbl.remove sh.probes token;
    Metrics.incr sh.s_metrics Metrics.Rpc_timeouts 1;
    (* Only act if we are still resident and the pointer is unchanged. *)
    let s = find_slot t router rid in
    if s < 0 then ()
    else if
      Store.succ_router sh.store s = srouter && Id.equal (Store.succ_rid sh.store s) sid
    then begin
      if attempt <= rpc_retries then
        send_probe t ~router rid ~sid ~srouter (attempt + 1)
      else failover t ~router s sid
    end
    else Store.set_probe_inflight sh.store s false
  end

(* The successor is unresponsive: drop it and promote the next backup.  With
   an exhausted backup list, fall back on the local router's default
   identifier — always alive — and let stabilisation walk the pointer back
   into place.

   With [verify_joins] on, promotion is no longer blind (the second half of
   the headline fix): each candidate is challenged at its claimed router
   before the pointer moves — a Verify_req/Verify_resp round trip with one
   rpc timeout and no retries, a failed or unanswered challenge rejecting
   the candidate and moving on to the next.  The probe-inflight flag stays
   set across the chain so the stabiliser cannot start a second failover
   for the same stale pointer; every settling path clears it. *)
and failover t ~router s dead =
  let sh = shd t router in
  Metrics.incr sh.s_metrics Metrics.Failovers 1;
  let rid = Store.rid sh.store s in
  let backups =
    List.filter (fun (i, _) -> not (Id.equal i dead)) (Store.succ_list sh.store s)
  in
  if t.cfg.verify_joins then try_promote t ~router rid ~dead backups
  else begin
    Store.set_probe_inflight sh.store s false;
    match backups with
    | (nid, nrouter) :: rest ->
      repoint t ~router s (Some (nid, nrouter));
      Store.set_succ_list sh.store s rest;
      send_direct t ~cat:Metrics.Repair ~from:router ~dest:nrouter
        (Notify { candidate = rid; candidate_router = router; target = nid })
    | [] -> promote_anchor t ~router s rid
  end

and promote_anchor t ~router s rid =
  let sh = shd t router in
  let anchor = router_label router in
  if Id.equal anchor rid then repoint t ~router s (Store.pred sh.store s)
  else begin
    repoint t ~router s (Some (anchor, router));
    Store.set_succ_list sh.store s []
  end

and try_promote t ~router rid ~dead candidates =
  let sh = shd t router in
  let s = find_slot t router rid in
  if s < 0 then () (* departed while failing over; nothing left to settle *)
  else
    match candidates with
    | [] ->
      Store.set_probe_inflight sh.store s false;
      promote_anchor t ~router s rid
    | (nid, nrouter) :: rest ->
      if nrouter = router then begin
        (* Co-located candidate: the handshake is a local call, no wire. *)
        let ok = find_slot t router nid >= 0 && not (Hashtbl.mem t.tainted nid) in
        if ok then promote_verified t ~router rid ~dead (nid, nrouter) rest
        else begin
          Metrics.incr sh.s_metrics Metrics.Promo_rejects 1;
          try_promote t ~router rid ~dead rest
        end
      end
      else begin
        let token = fresh_token sh in
        (* Challenge bytes are content-keyed on (asker, candidate): the
           handshake outcome is then a function of the workload alone,
           identical at any shard or job count. *)
        let challenge =
          Identity.fresh_challenge
            (Prng.create (Hashtbl.hash (Id.to_bytes rid, Id.to_bytes nid, 0x7e11f)))
        in
        let k ok =
          if ok then promote_verified t ~router rid ~dead (nid, nrouter) rest
          else begin
            Metrics.incr sh.s_metrics Metrics.Promo_rejects 1;
            try_promote t ~router rid ~dead rest
          end
        in
        Inttbl.replace sh.verifies token
          { v_claimed = nid; v_challenge = challenge; v_done = false; v_k = k };
        send_direct t ~cat:Metrics.Verify ~from:router ~dest:nrouter
          (Verify_req { claimant = nid; asker_router = router; token; challenge });
        sched t ~rail:router ~at:router
          ~time_ms:(now_at t router +. rpc_timeout_ms)
          (Timer
             (fun () ->
               match Inttbl.find sh.verifies token with
               | vs when not vs.v_done ->
                 vs.v_done <- true;
                 Inttbl.remove sh.verifies token;
                 Metrics.incr sh.s_metrics Metrics.Rpc_timeouts 1;
                 vs.v_k false
               | _ | (exception Not_found) -> ()))
      end

and promote_verified t ~router rid ~dead (nid, nrouter) rest =
  let sh = shd t router in
  let s = find_slot t router rid in
  if s >= 0 then begin
    Store.set_probe_inflight sh.store s false;
    if Store.succ_router sh.store s >= 0 && Id.equal (Store.succ_rid sh.store s) dead
    then begin
      repoint t ~router s (Some (nid, nrouter));
      Store.set_succ_list sh.store s rest;
      send_direct t ~cat:Metrics.Repair ~from:router ~dest:nrouter
        (Notify { candidate = rid; candidate_router = router; target = nid })
    end
    (* else: the pointer moved on during verification; leave it be *)
  end

(* ---- the greedy ranker --------------------------------------------------

   A router's best local knowledge of a target: the identifier closest to
   it, not past it, among its residents and their successor pointers,
   excluding [avoid] and (with [skip_target], for a join) the target.  The
   one ranking of every greedy step: the chase, [lookup_owner], the α-branch
   owner walk.  Chain order, each resident before its successor; ties keep
   the first visited.  Returns the router hosting the winner ([router] for
   a resident) or -1, with the winner and its key distance to the target in
   the shard's [ranked]/[ranked_d] registers. *)

let rec avoided id = function [] -> false | a :: rest -> Id.equal a id || avoided id rest

(* Candidates carry their clockwise key distance to the target, which
   decides most comparisons from the key columns alone.  Does [id], at key
   distance [d], displace [best] ([host] = -1: no best yet)? *)
let[@inline] outranks ~target ~skip_target ~avoid ~host ~best ~best_d id d =
  (host < 0 || Id.closer_clockwise_keyed ~target d id best_d best)
  && not ((skip_target && Id.equal id target) || avoided id avoid)

let rank sh ~router ~target ~skip_target ~avoid =
  let store = sh.store in
  let tk = Id.key target in
  let host = ref (-1) and best = ref sh.ranked and best_d = ref 0 in
  let s = ref (Store.chain_head store router) in
  while !s >= 0 do
    let rid = Store.rid store !s in
    let d = (tk - Store.rkey store !s) land Id.key_mask in
    if outranks ~target ~skip_target ~avoid ~host:!host ~best:!best ~best_d:!best_d rid d
    then begin
      host := router;
      best := rid;
      best_d := d
    end;
    let srouter = Store.succ_router store !s in
    if srouter >= 0 && srouter <> router then begin
      let sid = Store.succ_rid store !s in
      let d = (tk - Store.succ_key store !s) land Id.key_mask in
      if outranks ~target ~skip_target ~avoid ~host:!host ~best:!best ~best_d:!best_d sid d
      then begin
        host := srouter;
        best := sid;
        best_d := d
      end
    end;
    s := Store.chain_next store !s
  done;
  sh.ranked <- !best;
  sh.ranked_d <- !best_d;
  !host

(* The resident of [router] closest to [target]: its slot, or -1 when the
   router hosts nobody.  Where a walk that stopped making progress settles,
   and what a [Misroute] router names as the owner. *)
let best_resident store ~router ~target =
  let best = ref (-1) in
  let s = ref (Store.chain_head store router) in
  while !s >= 0 do
    if !best < 0 || Id.closer_clockwise ~target (Store.rid store !s) (Store.rid store !best)
    then best := !s;
    s := Store.chain_next store !s
  done;
  !best

(* One hop of the pure-read greedy owner walk, shared by [lookup_owner] and
   [walk_owner]: rank at [router] and take the hop if its winner is closer
   than the previous hop's [best], at key distance [best_d], else settle on
   the best local resident.  [best_d < 0] marks the first hop, whose
   horizon is [succ target]: a winner on another router always beats it.
   [rank] visits a resident of [router] first, so such a winner displaced
   an earlier candidate: it is strictly closer than some distance, hence
   below the maximum.  Returns the next router, its winner in the
   shard's [ranked]/[ranked_d]; [owner_found], the verdict in [ranked]; or
   [owner_dead]. *)
let owner_found = -2 and owner_dead = -1

let owner_step sh ~router ~target ~best_d ~best =
  let next = rank sh ~router ~target ~skip_target:false ~avoid:[] in
  if next < 0 then owner_dead
  else if next = router then owner_found
  else if best_d < 0 || Id.closer_clockwise_keyed ~target sh.ranked_d sh.ranked best_d best
  then next
  else begin
    let s = best_resident sh.store ~router ~target in
    if s < 0 then owner_dead
    else (sh.ranked <- Store.rid sh.store s; owner_found)
  end

let pcache_insert t router id orouter =
  if Array.length t.pcaches > 0 then
    Pcache.insert t.pcaches.(router) ~now:(now_at t router) id orouter

let latency_between t a b =
  if a = b then 0.0
  else begin
    let d = Linkstate.distance_to_nan (shd t a).s_ls a b in
    if Float.is_nan d then 0.0 else d
  end

let link_hops_between t a b =
  if a = b then 0
  else begin
    let h = Linkstate.distance_hops_count (shd t a).s_ls a b in
    if h < 0 then 0 else h
  end

(* ---- diversified branch starts ------------------------------------------

   Start routers for the extra branches of an α-parallel lookup, drawn from
   the origin router's local state in a fixed order — pointer-cache best
   match toward the target, then successor-list backup routers of the
   origin's residents (chain order), then predecessor routers ("external
   hosts" behind the origin on the ring).  Deduplicated against the origin
   and each other; the draw order IS the branch index, and every tie
   between branches resolves to the lowest branch index, so α results are a
   function of the workload alone.  Writes at most [max_extra] routers into
   [out.(pos..)] and returns how many it wrote.  Traverses the resident
   chains directly and allocates nothing. *)

let rec drawn out r k stop = k < stop && (out.(k) = r || drawn out r (k + 1) stop)

(* [out.(pos..cur-1)] with router [r] drawn unless it is the origin, already
   drawn, or past [stop]: the new end. *)
let draw_start out ~from ~pos ~stop cur r =
  if r < 0 || r = from || cur >= stop || drawn out r pos cur then cur
  else begin
    out.(cur) <- r;
    cur + 1
  end

let branch_starts_into t ~from ~target ~out ~pos ~max_extra =
  if max_extra <= 0 then 0
  else begin
    let stop = pos + max_extra in
    let cur = ref pos in
    if Array.length t.pcaches > 0 then begin
      let c = t.pcaches.(from) in
      let i = Pcache.best_toward c ~target in
      if i >= 0 then cur := draw_start out ~from ~pos ~stop !cur c.Pcache.routers.(i)
    end;
    let store = (shd t from).store in
    let s = ref (Store.chain_head store from) in
    while !s >= 0 && !cur < stop do
      for k = 0 to Store.succ_list_len store !s - 1 do
        cur := draw_start out ~from ~pos ~stop !cur (Store.succ_list_router store !s k)
      done;
      s := Store.chain_next store !s
    done;
    s := Store.chain_head store from;
    while !s >= 0 && !cur < stop do
      cur := draw_start out ~from ~pos ~stop !cur (Store.pred_router_raw store !s);
      s := Store.chain_next store !s
    done;
    !cur - pos
  end

(* ---- the greedy chase ----------------------------------------------------

   A join finds its predecessor by the greedy forwarding that carries
   lookups (the paper's Alg. 1 routes with Alg. 2), so both requests run
   this one chase.  Each router re-ranks on receipt (one link traversal per
   event), but the request stays committed to the closest candidate seen so
   far, so transit routers with worse local knowledge cannot make it
   oscillate.  A committed candidate absent where it should reside may be
   mid-join (its state materialises when its own [Join_resp] lands): wait
   [stuck_wait_ms], at most [stuck_wait_limit] times, then avoid it and
   re-chase.  The join and lookup timers are the backstops.  The message
   picks the rest: on arrival a join splices and a lookup answers; at a
   dead end a join is dropped and a lookup answers "no owner".  Every
   rescheduled step re-enters through [handle], so [forward_lookup]'s
   behaviour seam sees every hop of a lookup. *)

(* [m] with its chase state replaced, charging [hops] more link traversals
   to a lookup. *)
let recommit m ~chasing_id ~chasing_router ~avoid ~waited ~hops =
  match m with
  | Join_req r -> Join_req { r with chasing_id; chasing_router; avoid; waited }
  | Lookup_req r ->
    Lookup_req { r with chasing_id; chasing_router; avoid; waited; hops = r.hops + hops }
  | m -> m

let rec chase t ~at (m : message) =
  match m with
  | Join_req { joining = target; chasing_id; chasing_router; avoid; waited; _ }
  | Lookup_req { target; chasing_id; chasing_router; avoid; waited; _ } -> (
    let sh = shd t at in
    let is_join = match m with Join_req _ -> true | _ -> false in
    let host = rank sh ~router:at ~target ~skip_target:is_join ~avoid in
    let improves =
      host >= 0
      && (chasing_router < 0 || Id.closer_clockwise ~target sh.ranked chasing_id)
    in
    (* Nothing better here: keep chasing the committed candidate. *)
    let cid = if improves then sh.ranked else chasing_id in
    let crouter = if improves then host else chasing_router in
    if crouter < 0 then answer t ~at m Id.zero (-1)
    else if crouter = at then arrive t ~at m ~avoid ~waited cid
    else
      match Linkstate.next_hop sh.s_ls at crouter with
      | None -> answer t ~at m Id.zero (-1)
      | Some h ->
        let m' =
          recommit m ~chasing_id:cid ~chasing_router:crouter ~avoid ~waited ~hops:1
        in
        Metrics.incr sh.s_metrics (if is_join then Metrics.Join else Metrics.Lookup) 1;
        sched t ~rail:at ~at:h ~time_ms:(now_at t at +. Graph.latency t.graph at h) m')
  | _ -> ()

(* At the router where the committed candidate [id] should reside. *)
and arrive t ~at m ~avoid ~waited id =
  let sh = shd t at in
  let s = find_slot t at id in
  if s < 0 && waited < stuck_wait_limit then begin
    let m' =
      recommit m ~chasing_id:id ~chasing_router:at ~avoid ~waited:(waited + 1) ~hops:0
    in
    sched t ~rail:at ~at ~time_ms:(now_at t at +. stuck_wait_ms) m'
  end
  else if s < 0 then
    (* Still absent: treat it as dead and re-chase without it. *)
    handle t at
      (recommit m ~chasing_id:Id.zero ~chasing_router:(-1) ~avoid:(id :: avoid) ~waited:0
         ~hops:0)
  else
    match m with
    | Join_req { joining; _ }
      when Store.succ_router sh.store s >= 0
           && Id.equal (Store.succ_rid sh.store s) joining ->
      (* A retried request re-spliced where the first one already did:
         nothing to do — the gateway drops the duplicate response, and a
         genuinely lost response is covered by the join timer. *)
      ()
    | Join_req { joining; gateway; _ } ->
      (* The closest known identifier: the predecessor.  Splice. *)
      let store = sh.store in
      let rid = Store.rid store s in
      let n = Store.succ_list_len store s in
      let list_ids = Array.make n Id.zero and list_routers = Array.make n 0 in
      Store.blit_succ_list store s list_ids list_routers 0;
      let resp =
        Join_resp
          { joining; pred_id = rid; pred_router = at; succ_id = Store.succ_rid store s;
            succ_router = Store.succ_router store s; list_ids; list_routers }
      in
      if Store.succ_router store s >= 0 then
        Store.stage store (Store.succ_rid store s) (Store.succ_router store s);
      Store.stage_backups store s;
      repoint t ~router:at s (Some (joining, gateway));
      adopt_staged t sh s ~self:rid ~succ:joining;
      send_direct t ~cat:Metrics.Join ~from:at ~dest:gateway resp
    | _ -> answer t ~at m (Store.rid sh.store s) at

(* A lookup's answer to its origin.  A join has nobody to answer: at a dead
   end ([owner_router = -1]) it is dropped. *)
and answer t ~at m owner_id owner_router =
  match m with
  | Lookup_req { origin; token; hops; _ } ->
    send_direct t ~cat:Metrics.Lookup ~from:at ~dest:origin
      (Lookup_resp { token; owner_id; owner_router; hops })
  | _ -> ()

(* ---- lookups ------------------------------------------------------------ *)

and forward_lookup t ~at (m : message) =
  match m with
  | Lookup_req { target; _ } -> (
    match t.behaviours.(at) with
    | Drop_lookups ->
      (* Byzantine silence: the request dies here and the origin's attempt
         timeout pays for it.  Applies at every hop the request transits —
         responses travel application-direct and cannot be intercepted. *)
      ()
    | Misroute ->
      (* Deterministic misrouting: answer immediately, naming this router's
         best resident as the owner.  A real identifier at a real router —
         just the wrong one — so the origin burns a retry cycle on it. *)
      let store = (shd t at).store in
      let s = best_resident store ~router:at ~target in
      if s < 0 then answer t ~at m Id.zero (-1) else answer t ~at m (Store.rid store s) at
    | Honest | Poison_succs -> chase t ~at m)
  | _ -> ()

(* ---- message dispatch --------------------------------------------------- *)

and handle t at (m : message) =
  match m with
  | Join_req _ -> chase t ~at m
  | Lookup_req _ -> forward_lookup t ~at m
  | Join_resp { joining; pred_id; pred_router; succ_id; succ_router; list_ids; list_routers } ->
    let sh = shd t at in
    (match Hashtbl.find_opt sh.joins joining with
     | Some st when st.gateway = at ->
       st.completed <- true;
       Hashtbl.remove sh.joins joining;
       (* The resident materialises only now, so a half-joined identifier is
          never visible to concurrent lookups. *)
       let now = now_at t at in
       let s = Store.alloc sh.store ~router:at joining in
       Store.set_pred sh.store s (Some (pred_id, pred_router));
       Store.set_pred_heard sh.store s now;
       stage_columns sh.store ~skip:joining list_ids list_routers;
       adopt_staged t sh s ~self:joining ~succ:(if succ_router >= 0 then succ_id else joining);
       Idtbl.replace sh.where joining s;
       if succ_router >= 0 then begin
         (* Tell the successor about us. *)
         send_direct t ~cat:Metrics.Join ~from:at ~dest:succ_router
           (Notify { candidate = joining; candidate_router = at; target = succ_id });
         Store.set_succ sh.store s (Some (succ_id, succ_router))
       end
       else Store.set_succ sh.store s (Some (pred_id, pred_router));
       sh.olog <- O_join (now, joining) :: sh.olog;
       sh.olog <- O_repoint (now, joining, Some (Store.succ_rid sh.store s)) :: sh.olog;
       Metrics.incr sh.s_metrics Metrics.Joins_done 1
     | Some _ | None -> () (* a duplicate, or superseded by a move elsewhere *))
  | Get_pred { asker; asker_router; target; token } ->
    let sh = shd t at in
    let poisoned = t.behaviours.(at) = Poison_succs in
    let s = find_slot t at target in
    if s < 0 then begin
      if poisoned && not (ever_member t target) then begin
        (* Vouch for a ghost: a poisoned router answers probes of
           identifiers that were never admitted — its own fabrications —
           so a victim that promoted one keeps believing its successor is
           alive.  Real dead members are NOT vouched for: concealing a
           genuine death would suppress the failovers the promotion attack
           feeds on (and hand the victim a silent succ forever, which no
           promotion defense could ever be measured against). *)
        let list_ids = Array.make poison_len Id.zero
        and list_routers = Array.make poison_len 0 in
        poison list_ids list_routers ~at target;
        send_direct t ~cat:Metrics.Stabilize ~from:at ~dest:asker_router
          (Pred_info
             { of_id = target; pred_id = Id.zero; pred_router = -1; list_ids; list_routers;
               to_id = asker; token })
      end
      (* else dead: the asker's probe timeout handles it *)
    end
    else begin
      let store = sh.store in
      (* A probe from our predecessor doubles as its liveness heartbeat. *)
      if Store.pred_router_raw store s >= 0 && Id.equal (Store.pred_rid store s) asker then
        Store.set_pred_heard store s (now_at t at);
      (* The reply's columns: any fabrications, then the successor, then
         the backups. *)
      let lead = if poisoned then poison_len else 0 in
      let srouter = Store.succ_router store s in
      let first = if srouter >= 0 then lead + 1 else lead in
      let n = first + Store.succ_list_len store s in
      let list_ids = Array.make n Id.zero and list_routers = Array.make n 0 in
      if poisoned then poison list_ids list_routers ~at target;
      if srouter >= 0 then begin
        list_ids.(lead) <- Store.succ_rid store s;
        list_routers.(lead) <- srouter
      end;
      Store.blit_succ_list store s list_ids list_routers first;
      send_direct t ~cat:Metrics.Stabilize ~from:at ~dest:asker_router
        (Pred_info
           { of_id = target; pred_id = Store.pred_rid store s;
             pred_router = Store.pred_router_raw store s; list_ids; list_routers;
             to_id = asker; token })
    end
  | Pred_info { of_id; pred_id; pred_router; list_ids; list_routers; to_id; token } ->
    let sh = shd t at in
    let store = sh.store in
    Inttbl.remove sh.probes token;
    let s = find_slot t at to_id in
    if s >= 0 then begin
      Store.set_probe_inflight store s false;
      let rid = Store.rid store s in
      let confirmed = Store.succ_router store s >= 0 && Id.equal (Store.succ_rid store s) of_id in
      (* Adopt the successor's own successors as our backups. *)
      if confirmed then begin
        stage_columns store ~skip:rid list_ids list_routers;
        adopt_staged t sh s ~self:rid ~succ:of_id
      end;
      if confirmed && pred_router >= 0 && Id.between rid pred_id of_id then begin
        (* A closer successor surfaced between us and our successor. *)
        Store.stage store of_id (Store.succ_router store s);
        Store.stage_backups store s;
        repoint t ~router:at s (Some (pred_id, pred_router));
        adopt_staged t sh s ~self:rid ~succ:pred_id;
        send_direct t ~cat:Metrics.Stabilize ~from:at ~dest:pred_router
          (Notify { candidate = rid; candidate_router = at; target = pred_id })
      end
      else begin
        (* Confirmed: tell the successor we believe we are its pred. *)
        let srouter = Store.succ_router store s in
        if srouter >= 0 then begin
          let sid = Store.succ_rid store s in
          send_direct t ~cat:Metrics.Stabilize ~from:at ~dest:srouter
            (Notify { candidate = rid; candidate_router = at; target = sid })
        end
      end
    end
  | Notify { candidate; candidate_router; target } ->
    let sh = shd t at in
    let store = sh.store in
    let s = find_slot t at target in
    if s >= 0 then begin
      let has_pred = Store.pred_router_raw store s >= 0 in
      if has_pred && Id.equal (Store.pred_rid store s) candidate then
        Store.set_pred_heard store s (now_at t at)
      else if has_pred && not (Id.between (Store.pred_rid store s) candidate (Store.rid store s))
      then ()
      else begin
        Store.set_pred store s (Some (candidate, candidate_router));
        Store.set_pred_heard store s (now_at t at)
      end
    end
  | Leave_pred { departing; to_id; new_succ_id; new_succ_router; list_ids; list_routers } ->
    let sh = shd t at in
    let s = find_slot t at to_id in
    if s >= 0 then begin
      let rid = Store.rid sh.store s in
      if Store.succ_router sh.store s >= 0 && Id.equal (Store.succ_rid sh.store s) departing
      then begin
        repoint t ~router:at s (pointer_opt new_succ_id new_succ_router);
        stage_columns sh.store ~skip:departing list_ids list_routers;
        adopt_staged t sh s ~self:rid
          ~succ:(if new_succ_router >= 0 then new_succ_id else rid);
        (* Introduce ourselves to the inherited successor right away. *)
        if new_succ_router >= 0 && not (Id.equal new_succ_id rid) then
          send_direct t ~cat:Metrics.Repair ~from:at ~dest:new_succ_router
            (Notify { candidate = rid; candidate_router = at; target = new_succ_id })
      end
      else
        (* Our successor moved on already; just drop the departed identifier
           from the backup list. *)
        Store.set_succ_list sh.store s
          (List.filter
             (fun (i, _) -> not (Id.equal i departing))
             (Store.succ_list sh.store s))
    end
  | Leave_succ { departing; to_id; new_pred_id; new_pred_router } ->
    let sh = shd t at in
    let s = find_slot t at to_id in
    if
      s >= 0
      && Store.pred_router_raw sh.store s >= 0
      && Id.equal (Store.pred_rid sh.store s) departing
    then begin
      Store.set_pred sh.store s (pointer_opt new_pred_id new_pred_router);
      Store.set_pred_heard sh.store s (now_at t at)
    end
  | Lookup_resp { token; owner_id; owner_router; hops } ->
    let sh = shd t at in
    (match Inttbl.find sh.lookups token with
     | exception Not_found ->
       (* A cancelled branch or a superseded attempt coming home: the work
          it charged along the way bought nothing. *)
       Metrics.incr sh.s_metrics Metrics.Wasted_hops hops
     | st ->
       Inttbl.remove sh.lookups token;
       st.lk_outstanding <- st.lk_outstanding - 1;
       if not st.finished then begin
         let ok = owner_router >= 0 && Id.equal owner_id st.lk_target in
         (* Any learned owner pointer seeds the origin's pointer cache. *)
         if owner_router >= 0 then pcache_insert t at owner_id owner_router;
         if ok then begin
           (* First success wins: cancel the sibling branches still in
              flight — their tokens are dropped so their answers are
              discarded (and charged as waste) on arrival. *)
           if st.lk_outstanding > 0 then begin
             List.iter
               (fun tk -> if tk <> token then Inttbl.remove sh.lookups tk)
               st.lk_tokens;
             Metrics.incr sh.s_metrics Metrics.Cancellations st.lk_outstanding;
             st.lk_outstanding <- 0
           end;
           st.lk_tokens <- [];
           finish_lookup t st ~ok:true
         end
         else if st.lk_outstanding > 0 then
           (* A losing branch with siblings still racing: let them run. *)
           Metrics.incr sh.s_metrics Metrics.Wasted_hops hops
         else if st.lk_attempts > lookup_retries then begin
           st.lk_tokens <- [];
           finish_lookup t st ~ok:false
         end
         else begin
           (* Every branch came back wrong or empty: give stabilisation one
              period to repair the pointers, then retry. *)
           st.lk_tokens <- [];
           Metrics.incr sh.s_metrics Metrics.Lookup_retries 1;
           sched t ~rail:at ~at
             ~time_ms:(now_at t at +. t.cfg.stabilize_period_ms)
             (Timer (fun () -> if not st.finished then start_lookup_attempt t st))
         end
       end)
  | Verify_req { claimant; asker_router; token; challenge } ->
    (* A failover asker is challenging [claimant]'s residency here.  Only a
       resident admitted with its credential can produce a valid tag; an
       honest router reports absence outright, and a poisoned router's vouch
       for a ghost is indistinguishable from absence to the verifier — it
       does not hold the key either way, so replying [None] loses it
       nothing and keeps the wire model small. *)
    let resp =
      if find_slot t at claimant < 0 || Hashtbl.mem t.tainted claimant then None
      else begin
        let kp =
          match Hashtbl.find_opt t.creds claimant with
          | Some kp -> kp
          | None -> Identity.credential_for claimant (* bootstrap labels *)
        in
        Some (Identity.respond kp challenge)
      end
    in
    send_direct t ~cat:Metrics.Verify ~from:at ~dest:asker_router
      (Verify_resp { token; resp })
  | Verify_resp { token; resp } ->
    let sh = shd t at in
    (match Inttbl.find sh.verifies token with
     | vs when not vs.v_done ->
       vs.v_done <- true;
       Inttbl.remove sh.verifies token;
       let ok =
         match resp with
         | Some r -> Identity.check_response ~claimed:vs.v_claimed vs.v_challenge r
         | None -> false
       in
       vs.v_k ok
     | _ | (exception Not_found) -> ())
  | Probe_timeout { rid; sid; srouter; token; attempt } ->
    probe_timeout t ~router:at rid ~sid ~srouter ~token attempt
  | Timer f -> f ()

and finish_lookup t st ~ok =
  let sh = shd t st.origin in
  st.finished <- true;
  sh.lookups_open <- sh.lookups_open - 1;
  st.cb
    {
      target = st.lk_target;
      issued_ms = st.lk_issued;
      completed_ms = now_at t st.origin;
      ok;
      attempts = st.lk_attempts;
    }

and start_lookup_attempt t st =
  let sh = shd t st.origin in
  st.lk_attempts <- st.lk_attempts + 1;
  let token = fresh_token sh in
  st.lk_token <- token;
  st.lk_tokens <- [ token ];
  st.lk_outstanding <- 1;
  Inttbl.replace sh.lookups token st;
  let now = now_at t st.origin in
  sched t ~rail:st.origin ~at:st.origin ~time_ms:now
    (Lookup_req
       { target = st.lk_target; origin = st.origin; token; chasing_id = Id.zero;
         chasing_router = -1; avoid = []; waited = 0; hops = 0 });
  (* Extra branches start at diversified routers: the request transits there
     first (charged like any routed message), then greedy-walks from that
     router's local knowledge.  The primary branch above is byte-identical
     to the α=1 engine — extras only add events after it. *)
  let alpha = t.cfg.lookup_alpha in
  if alpha > 1 then begin
    let starts = Array.make (alpha - 1) (-1) in
    let k =
      branch_starts_into t ~from:st.origin ~target:st.lk_target ~out:starts
        ~pos:0 ~max_extra:(alpha - 1)
    in
    for b = 0 to k - 1 do
      let start = starts.(b) in
      let btoken = fresh_token sh in
      st.lk_tokens <- btoken :: st.lk_tokens;
      st.lk_outstanding <- st.lk_outstanding + 1;
      Inttbl.replace sh.lookups btoken st;
      let hops = link_hops_between t st.origin start in
      send_direct t ~cat:Metrics.Lookup ~from:st.origin ~dest:start
        (Lookup_req
           { target = st.lk_target; origin = st.origin; token = btoken;
             chasing_id = Id.zero; chasing_router = -1; avoid = []; waited = 0; hops })
    done
  end;
  let timeout =
    t.cfg.lookup_timeout_ms *. (rpc_backoff ** float_of_int (st.lk_attempts - 1))
  in
  sched t ~rail:st.origin ~at:st.origin ~time_ms:(now +. timeout)
    (Timer
       (fun () ->
         if (not st.finished) && st.lk_token = token && st.lk_outstanding > 0
         then begin
           (* Reap every branch of this attempt. *)
           List.iter (fun tk -> Inttbl.remove sh.lookups tk) st.lk_tokens;
           st.lk_tokens <- [];
           st.lk_outstanding <- 0;
           Metrics.incr sh.s_metrics Metrics.Rpc_timeouts 1;
           if st.lk_attempts > lookup_retries then finish_lookup t st ~ok:false
           else begin
             Metrics.incr sh.s_metrics Metrics.Lookup_retries 1;
             start_lookup_attempt t st
           end
         end))

(* ---- construction ------------------------------------------------------- *)

let create ~rng ?(cfg = default_config) ?(shards = 1) ?pool ?(bootstrap_hosts = 0)
    ?(lookup_hint = 0) ?(groups = [||]) ?behaviours graph =
  if shards < 1 then invalid_arg "Proto.create: shards must be >= 1";
  if bootstrap_hosts < 0 then invalid_arg "Proto.create: bootstrap_hosts < 0";
  if cfg.lookup_alpha < 1 then invalid_arg "Proto.create: lookup_alpha must be >= 1";
  let n = Graph.n graph in
  if Array.length groups <> 0 && Array.length groups <> n then
    invalid_arg "Proto.create: groups must have one entry per router";
  (match behaviours with
   | Some b when Array.length b <> n ->
     invalid_arg "Proto.create: behaviours must have one entry per router"
   | _ -> ());
  let k = max 1 (min shards n) in
  let shard_of = Array.init n (fun r -> min (r * k / n) (k - 1)) in
  (* Conservative window: no message can cross shards faster than the
     cheapest partition-crossing link. *)
  let window =
    if k = 1 then infinity
    else begin
      let w = ref infinity in
      Graph.iter_links graph (fun { Graph.u; v; latency_ms } ->
          if shard_of.(u) <> shard_of.(v) && latency_ms < !w then w := latency_ms);
      !w
    end
  in
  if k > 1 && not (window > 0.0) then
    invalid_arg "Proto.create: cross-shard links must have positive latency";
  (* Bootstrap membership: one default identifier per router, plus
     [bootstrap_hosts] extra hosts placed uniformly — drawn before any shard
     state exists, so placement is identical at every shard count. *)
  let seen = Hashtbl.create (2 * (n + bootstrap_hosts)) in
  let boot = ref [] in
  for router = 0 to n - 1 do
    let rid = router_label router in
    Hashtbl.replace seen rid ();
    boot := (rid, router) :: !boot
  done;
  let added = ref 0 in
  while !added < bootstrap_hosts do
    let rid = Id.random rng in
    if not (Hashtbl.mem seen rid) then begin
      Hashtbl.replace seen rid ();
      boot := (rid, Prng.int rng n) :: !boot;
      incr added
    end
  done;
  let per_shard = ((n + bootstrap_hosts) / k) + 1 in
  (* Auto mode sizes successor-list headroom from the bootstrap population:
     the per-resident target is ~log2(N̂), so give the store room to grow
     lists beyond the static length as estimates come in. *)
  let cap_list =
    let static = succ_list_len - 1 in
    if not cfg.stabilize_auto then static
    else
      let m = float_of_int (n + bootstrap_hosts + 1) in
      max static (int_of_float (ceil (log m /. log 2.0)))
  in
  let sh =
    Array.init k (fun sx ->
        {
          sx;
          store =
            Store.create ~routers:n ~cap_list ~hint:(2 * per_shard)
              ~dummy:(router_label 0);
          where = Idtbl.create (max 16 (2 * per_shard));
          s_ls = Linkstate.create graph;
          s_latency = [| 0.0 |];
          s_metrics = Metrics.create ~routers:n;
          probes = Inttbl.create (max 64 per_shard);
          joins = Hashtbl.create 16;
          lookups = Inttbl.create (max 16 lookup_hint);
          verifies = Inttbl.create 16;
          olog = [];
          next_token = 0;
          lookups_open = 0;
          ranked = Id.zero;
          ranked_d = 0;
        })
  in
  (* Every queued entry is a message for, or a timer of, the router its int
     names, run by [handle].  [exec] reads [t] back from [self]: the
     coordinator is built before [t] exists. *)
  let self = ref None in
  let exec at m = match !self with Some t -> handle t at m | None -> () in
  let t =
    {
      graph;
      cfg;
      coord = Shard.create ?pool ~exec ~shards:k ~window_ms:window ();
      nshards = k;
      shard_of;
      rails = Array.make n 0;
      sh;
      pool;
      oracle =
        {
          ostates = Hashtbl.create (2 * (n + bootstrap_hosts));
          omarks = Hashtbl.create 16;
          owindows = [];
        };
      pcaches =
        (if cfg.pcache_capacity > 0 then begin
           let quota = if cfg.quota_enforce then cfg.succ_quota else 0 in
           Array.init n (fun _ ->
               Pcache.create ~quota ~groups cfg.pcache_capacity (router_label 0))
         end
         else [||]);
      behaviours =
        (match behaviours with Some b -> Array.copy b | None -> Array.make n Honest);
      groups;
      tainted = Hashtbl.create 16;
      creds = Hashtbl.create 64;
      departs = [];
      stab_on = false;
      rounds = 0;
      leaves_done = 0;
      moves_done = 0;
      crashes_done = 0;
      auto_nhat = 0.0;
      auto_rate = 0.0;
      auto_mult = 1.0;
      auto_sl_limit = succ_list_len - 1;
      auto_last_deaths = 0;
      auto_last_ms = 0.0;
      auto_rounds = 0;
      refresh_on = false;
    }
  in
  (* Bootstrap shortcut: the identifier ring is spliced locally at time zero
     (the synchronous simulation charges this as the §3.1 flood; here we
     start from its outcome and let everything AFTER happen by message). *)
  let arr =
    List.sort (fun (a, _) (b, _) -> Id.compare a b) !boot |> Array.of_list
  in
  let m = Array.length arr in
  Array.iteri
    (fun i (rid, router) ->
      let shx = sh.(shard_of.(router)) in
      let s = Store.alloc shx.store ~router rid in
      Store.set_succ shx.store s (Some arr.((i + 1) mod m));
      Store.set_pred shx.store s (Some arr.((i + m - 1) mod m));
      Store.set_succ_list shx.store s
        (List.init
           (min (succ_list_len - 1) (max 0 (m - 2)))
           (fun j -> arr.((i + 2 + j) mod m)));
      Idtbl.replace shx.where rid s)
    arr;
  Array.iteri
    (fun i (rid, _) ->
      Hashtbl.replace t.oracle.ostates rid
        { o_mem = true; o_succ = Some (fst arr.((i + 1) mod m)); o_pointed = [];
          o_ever = true })
    arr;
  Array.iteri
    (fun i (rid, _) ->
      let sid, _ = arr.((i + 1) mod m) in
      let st = Hashtbl.find t.oracle.ostates sid in
      st.o_pointed <- rid :: st.o_pointed)
    arr;
  self := Some t;
  t

let lookup_async t ~from target cb =
  let sh = shd t from in
  let st =
    {
      origin = from;
      lk_target = target;
      lk_issued = now_at t from;
      lk_attempts = 0;
      lk_token = -1;
      lk_tokens = [];
      lk_outstanding = 0;
      finished = false;
      cb;
    }
  in
  sh.lookups_open <- sh.lookups_open + 1;
  start_lookup_attempt t st

(* ---- join entry point with timeout/retry -------------------------------- *)

let rec start_join_attempt t joining (st : join_state) =
  let sh = shd t st.gateway in
  st.join_attempts <- st.join_attempts + 1;
  let attempt = st.join_attempts in
  let now = now_at t st.gateway in
  sched t ~rail:st.gateway ~at:st.gateway ~time_ms:now
    (Join_req
       { joining; gateway = st.gateway; chasing_id = Id.zero; chasing_router = -1;
         avoid = []; waited = 0 });
  let timeout =
    t.cfg.join_timeout_ms *. (rpc_backoff ** float_of_int (attempt - 1))
  in
  sched t ~rail:st.gateway ~at:st.gateway ~time_ms:(now +. timeout)
    (Timer
       (fun () ->
         if (not st.completed) && st.join_attempts = attempt then begin
           Metrics.incr sh.s_metrics Metrics.Rpc_timeouts 1;
           if st.join_attempts > join_retries then begin
             Metrics.incr sh.s_metrics Metrics.Joins_failed 1;
             Hashtbl.remove sh.joins joining
           end
           else begin
             Metrics.incr sh.s_metrics Metrics.Join_retries 1;
             start_join_attempt t joining st
           end
         end))

let is_joining t id = Array.exists (fun sh -> Hashtbl.mem sh.joins id) t.sh

(* Join admission.  The headline fix of the attack lab: where the static
   [Rofl_intra.Network.join] always verified the claimed identifier, the
   dynamic ring admitted any claim unchallenged.  The gateway now runs one
   challenge/response round trip on the access link before the chase starts
   — synchronous, like the pcache refresh round trips, charged as two
   control messages under "verify" (the host is co-located with its
   gateway, so no graph latency is modelled; the cost shows up in message
   counts and in the crypto work per join, not in ring-convergence time).

   [cred] is the keypair the host presents for [joining]; omitted, the
   canonical credential for the identifier is presented — the honest path.
   A forged claim presents someone else's keypair and is rejected here when
   verification is on; with verification off it is admitted and remembered
   as tainted, which is what the doctor's forged-admission audit reads. *)
let join t ~gateway ?cred joining =
  if is_member t joining || is_joining t joining then ()
  else begin
    let sh = shd t gateway in
    let cred =
      match cred with Some kp -> kp | None -> Identity.credential_for joining
    in
    let g = Prng.create (Hashtbl.hash (Id.to_bytes joining, 0x0c4a7, "join-verify")) in
    let valid =
      Result.is_ok (Identity.verify_claim g ~claimed:joining (Identity.respond cred))
    in
    if t.cfg.verify_joins then begin
      Metrics.incr sh.s_metrics Metrics.Verify 2
    end;
    if t.cfg.verify_joins && not valid then begin
      Metrics.incr sh.s_metrics Metrics.Join_rejects 1
    end
    else begin
      if valid then Hashtbl.remove t.tainted joining
      else Hashtbl.replace t.tainted joining ();
      Hashtbl.replace t.creds joining cred;
      (ostate t joining).o_ever <- true;
      let st = { gateway; join_attempts = 0; completed = false } in
      Hashtbl.add sh.joins joining st;
      start_join_attempt t joining st
    end
  end

(* ---- departures --------------------------------------------------------- *)

(* Graceful departure: hand succ/pred state to the neighbours, then vanish.
   Returns false when the identifier is not resident anywhere. *)
let depart t ~graceful rid =
  match locate_slot t rid with
  | None -> false
  | Some (sh, s) ->
    let router = Store.owner sh.store s in
    if graceful then begin
      let store = sh.store in
      let pid = Store.pred_rid store s and prouter = Store.pred_router_raw store s in
      let sid = Store.succ_rid store s and srouter = Store.succ_router store s in
      if prouter >= 0 && not (Id.equal pid rid) then begin
        let n = Store.succ_list_len store s in
        let list_ids = Array.make n Id.zero and list_routers = Array.make n 0 in
        Store.blit_succ_list store s list_ids list_routers 0;
        send_direct t ~cat:Metrics.Repair ~from:router ~dest:prouter
          (Leave_pred
             { departing = rid; to_id = pid; new_succ_id = sid; new_succ_router = srouter;
               list_ids; list_routers })
      end;
      if srouter >= 0 && not (Id.equal sid rid) then
        send_direct t ~cat:Metrics.Repair ~from:router ~dest:srouter
          (Leave_succ
             { departing = rid; to_id = sid; new_pred_id = pid; new_pred_router = prouter })
    end;
    Idtbl.remove sh.where rid;
    Store.release sh.store s;
    (* Whoever still points at rid is stale from this instant. *)
    t.departs <- (Shard.now t.coord, rid) :: t.departs;
    true

let leave t rid =
  let ok = depart t ~graceful:true rid in
  if ok then t.leaves_done <- t.leaves_done + 1;
  ok

let crash t rid =
  let ok = depart t ~graceful:false rid in
  if ok then t.crashes_done <- t.crashes_done + 1;
  ok

let move t ~new_gateway rid =
  let ok = depart t ~graceful:true rid in
  if ok then begin
    t.moves_done <- t.moves_done + 1;
    let st = { gateway = new_gateway; join_attempts = 0; completed = false } in
    Hashtbl.replace (shd t new_gateway).joins rid st;
    start_join_attempt t rid st
  end;
  ok

(* ---- stabilisation ------------------------------------------------------ *)

(* A backup strictly closer (clockwise) than the successor itself means the
   ring went "loopy": concurrent splices and handoffs left a consistent
   cycle that visits members out of identifier order, and pairwise
   stabilisation alone cannot repair that — every wrong succ/pred pair is
   mutually confirmed (Chord's loopy-network problem).  The successor list
   is both the evidence and the repair: promote the closest entry and let
   Notify/rectify re-marry the neighbours. *)
let untwist t ~router s =
  let sh = shd t router in
  let store = sh.store in
  let srouter = Store.succ_router store s in
  if srouter >= 0 then begin
    let rid = Store.rid store s and sid = Store.succ_rid store s in
    (* The closest backup strictly closer than the successor; the first of
       equals. *)
    let best = ref (-1) in
    for k = 0 to Store.succ_list_len store s - 1 do
      let bid = Store.succ_list_id store s k in
      if
        (not (Id.equal bid rid))
        && Id.compare_dist rid bid rid sid < 0
        && (!best < 0 || Id.compare_dist rid bid rid (Store.succ_list_id store s !best) < 0)
      then best := k
    done;
    if !best >= 0 then begin
      let bid = Store.succ_list_id store s !best
      and brouter = Store.succ_list_router store s !best in
      Store.stage store sid srouter;
      Store.stage_backups store s;
      repoint t ~router s (Some (bid, brouter));
      (* Re-sorting places the demoted old successor at its true clockwise
         rank. *)
      adopt_staged t sh s ~self:rid ~succ:bid;
      send_direct t ~cat:Metrics.Repair ~from:router ~dest:brouter
        (Notify { candidate = rid; candidate_router = router; target = bid })
    end
  end

(* ---- network-size estimation --------------------------------------------

   A resident knows L = 1 + |backups| consecutive clockwise neighbours
   spanning the arc d = distance(self, farthest).  With members uniform on
   the 2^128 ring, d/L estimates the mean gap, so N̂ = L·2^128/d.  A single
   node's estimate is noisy — the arc is an Erlang(L) draw, so factor-of-
   several outliers are routine — but the median over all residents
   concentrates tightly; every consumer (auto-tuner, doctor, tests) reads
   {!estimate_n}, never a per-node sample.  Arithmetic runs on {!Id.key}
   (the top 62 bits): arcs below key resolution only occur at populations
   ≫ 10^12, far past anything simulated here. *)

let two_pow_62 = 4.611686018427387904e18

let estimate_n_slot store s =
  if Store.succ_router store s < 0 then 1.0
  else begin
    let rid = Store.rid store s in
    let len = Store.succ_list_len store s in
    let l, far =
      if len > 0 then (len + 1, Store.succ_list_id store s (len - 1))
      else (1, Store.succ_rid store s)
    in
    if Id.equal far rid then 1.0
    else
      let dk = float_of_int (max 1 (Id.key (Id.distance rid far))) in
      float_of_int l *. two_pow_62 /. dk
  end

let estimate_n t =
  let acc = ref [] in
  for router = 0 to Graph.n t.graph - 1 do
    let sh = shd t router in
    Store.iter_router sh.store router (fun s ->
        acc := estimate_n_slot sh.store s :: !acc)
  done;
  let xs = List.sort Float.compare !acc in
  let n = List.length xs in
  if n = 0 then 0.0 else List.nth xs (n / 2)

(* ---- self-tuning stabilisation ------------------------------------------

   Auto mode derives the probe period and successor-list length from what
   the protocol itself can observe, instead of the static config knobs:

   - churn rate λ̂ (deaths per member per ms), from announced departures
     plus failover detections, normalised by N̂ and smoothed by an EWMA;
   - probe-period multiplier m = clamp(1..16, P*/period) where
     P* = ε/λ̂ keeps the expected stale-successor fraction under ε — the
     churn lab's staleness SLO;
   - backup-list target ⌈log2 N̂⌉−1, never below the static
     [succ_list_len - 1]: longer lists ride along in Pred_info replies, so
     widening them costs no extra messages, only probe-reply bytes.

   Runs once per global round; the O(members·log) median is fine at lab
   scale and auto mode is opt-in. *)

let stale_eps = 0.02

let auto_retune t ~now =
  t.auto_rounds <- t.auto_rounds + 1;
  let nhat = estimate_n t in
  t.auto_nhat <- nhat;
  let deaths =
    t.leaves_done
    + Array.fold_left (fun acc sh -> acc + Metrics.get sh.s_metrics Metrics.Failovers) 0 t.sh
  in
  let dt = now -. t.auto_last_ms in
  if t.auto_last_ms > 0.0 && dt > 0.0 && nhat >= 1.0 then begin
    let raw = float_of_int (deaths - t.auto_last_deaths) /. (nhat *. dt) in
    t.auto_rate <-
      (if t.auto_rounds <= 2 then raw else (0.7 *. t.auto_rate) +. (0.3 *. raw))
  end;
  t.auto_last_deaths <- deaths;
  t.auto_last_ms <- now;
  t.auto_mult <-
    (if t.auto_rounds <= 4 then 1.0 (* warm up on the static cadence *)
     else if t.auto_rate <= 0.0 then 16.0
     else
       Float.max 1.0
         (Float.min 16.0 (stale_eps /. t.auto_rate /. t.cfg.stabilize_period_ms)));
  t.auto_sl_limit <-
    (let static = succ_list_len - 1 in
     if nhat < 2.0 then static
     else
       let l = int_of_float (ceil (log nhat /. log 2.0)) - 1 in
       min (max static l) (Store.cap_list (shd t 0).store))

let auto_state t =
  if t.cfg.stabilize_auto then Some (t.auto_nhat, t.auto_mult, t.auto_sl_limit)
  else None

let pcache_entries t =
  Array.fold_left (fun acc c -> acc + c.Pcache.len) 0 t.pcaches

let pcache_capacity_ok t =
  Array.for_all (fun c -> c.Pcache.len <= c.Pcache.cap) t.pcaches

let pcache_quota_ok t = Array.for_all Pcache.group_quota_ok t.pcaches

(* Every identifier currently cached in any router's pointer cache, with the
   router whose cache holds it — the doctor's poison-residency sweep. *)
let pcache_iter t f =
  Array.iteri
    (fun router c ->
      for i = 0 to c.Pcache.len - 1 do
        f ~router c.Pcache.ids.(i) c.Pcache.routers.(i)
      done)
    t.pcaches

let stabilize_resident t ~router ~now s =
  let sh = shd t router in
  let store = sh.store in
  let rid = Store.rid store s in
  (* Expire a silent predecessor so a live Notify can replace it. *)
  if
    Store.pred_router_raw store s >= 0
    && (not (Id.equal (Store.pred_rid store s) rid))
    && now -. Store.pred_heard store s > pred_timeout_ms
  then Store.set_pred store s None;
  if t.cfg.untwist then untwist t ~router s;
  let srouter = Store.succ_router store s in
  if
    srouter >= 0
    && (not (Id.equal (Store.succ_rid store s) rid))
    && (not (Store.probe_inflight store s))
    && ((not t.cfg.stabilize_auto) || now >= Store.due store s)
  then begin
    Store.set_probe_inflight store s true;
    if t.cfg.stabilize_auto then
      Store.set_due store s (now +. (t.auto_mult *. t.cfg.stabilize_period_ms));
    send_probe t ~router rid ~sid:(Store.succ_rid store s) ~srouter 1
  end

(* One shard's slice of a stabilisation tick: walks only its own routers,
   touches only its own state, emits through the shard-aware seam — safe to
   fan shards out over the pool from the (parked) global context. *)
let stabilize_shard t ~now sx =
  let sh = t.sh.(sx) in
  for router = 0 to Graph.n t.graph - 1 do
    if t.shard_of.(router) = sx then
      Store.iter_router sh.store router (fun s -> stabilize_resident t ~router ~now s)
  done

let stabilize_round t =
  t.rounds <- t.rounds + 1;
  let now = Shard.now t.coord in
  if t.cfg.stabilize_auto then auto_retune t ~now;
  match t.pool with
  | Some p when t.nshards > 1 && Pool.jobs p > 1 ->
    ignore (Pool.map p (fun sx -> stabilize_shard t ~now sx) (List.init t.nshards Fun.id))
  | _ ->
    for sx = 0 to t.nshards - 1 do
      stabilize_shard t ~now sx
    done

(* ---- pointer-cache refresh manager --------------------------------------

   A recurring global sweep, offset half a period from the stabiliser so it
   runs *between* rounds: each router re-validates up to
   [pcache_refresh_budget] entries older than the TTL.  The validation
   round-trip is modelled synchronously — membership is checked directly
   (every shard is parked at a global event, so the read is safe and
   K-independent) and the probe + reply are charged under "refresh" at the
   shortest-path link count.  Dead entries are evicted; live ones get a
   fresh stamp. *)

let refresh_round t =
  let now = Shard.now t.coord in
  for router = 0 to Graph.n t.graph - 1 do
    let c = t.pcaches.(router) in
    let sh = shd t router in
    let budget = ref pcache_refresh_budget in
    let i = ref 0 in
    while !i < c.Pcache.len && !budget > 0 do
      if now -. c.Pcache.stamp.(!i) > pcache_refresh_ttl_ms then begin
        decr budget;
        let id = c.Pcache.ids.(!i) and r = c.Pcache.routers.(!i) in
        let links = 2 * link_hops_between t router r in
        Metrics.incr sh.s_metrics Metrics.Refresh links;
        if find_slot t r id >= 0 then begin
          c.Pcache.stamp.(!i) <- now;
          incr i
        end
        else Pcache.remove_at c !i
      end
      else incr i
    done
  done

(* The stabiliser is a recurring *global* event: it reads and writes every
   shard, so it must run with all shards parked — and global times are
   exactly the K-independent instants the doctor's monitor samples at. *)
let start_stabilizer t =
  if not t.stab_on then begin
    t.stab_on <- true;
    let rec tick () =
      if t.stab_on then begin
        stabilize_round t;
        Shard.at_global t.coord
          ~time_ms:(Shard.now t.coord +. t.cfg.stabilize_period_ms)
          tick
      end
    in
    Shard.at_global t.coord
      ~time_ms:(Shard.now t.coord +. t.cfg.stabilize_period_ms)
      tick;
    if Array.length t.pcaches > 0 && not t.refresh_on then begin
      t.refresh_on <- true;
      let rec rtick () =
        if t.stab_on then begin
          refresh_round t;
          Shard.at_global t.coord
            ~time_ms:(Shard.now t.coord +. t.cfg.stabilize_period_ms)
            rtick
        end
        else t.refresh_on <- false
      in
      Shard.at_global t.coord
        ~time_ms:(Shard.now t.coord +. (1.5 *. t.cfg.stabilize_period_ms))
        rtick
    end
  end

let stop_stabilizer t = t.stab_on <- false

let run_for t budget_ms =
  Shard.run_until t.coord (Shard.now t.coord +. budget_ms)

let members t =
  Array.fold_left
    (fun acc sh -> Idtbl.fold (fun rid _ acc -> rid :: acc) sh.where acc)
    [] t.sh
  |> List.sort Id.compare

let successor_of t rid =
  match locate_slot t rid with
  | None -> None
  | Some (sh, s) -> Option.map fst (Store.succ sh.store s)

let ring_converged t =
  let ms = Array.of_list (members t) in
  let n = Array.length ms in
  n = 0
  || begin
    let ok = ref true in
    Array.iteri
      (fun i rid ->
        let expect = ms.((i + 1) mod n) in
        match successor_of t rid with
        | Some s when Id.equal s expect -> ()
        | Some _ | None -> ok := false)
      ms;
    !ok
  end

let run_until_quiescent t ~max_ms =
  let start = Shard.now t.coord in
  let deadline = start +. max_ms in
  let rec go () =
    if Shard.now t.coord >= deadline then Shard.now t.coord -. start
    else begin
      run_for t t.cfg.stabilize_period_ms;
      if Shard.pending t.coord = 0 && ring_converged t then
        Shard.now t.coord -. start
      else begin
        if Shard.pending t.coord = 0 then stabilize_round t;
        go ()
      end
    end
  in
  go ()

let stats t =
  let m = metrics t in
  let get = Metrics.get m in
  {
    messages = Metrics.total m;
    joins_completed = get Metrics.Joins_done;
    stabilize_rounds = t.rounds;
    joins_failed = get Metrics.Joins_failed;
    leaves_completed = t.leaves_done;
    moves_completed = t.moves_done;
    crashes = t.crashes_done;
    failovers = get Metrics.Failovers;
    rpc_timeouts = get Metrics.Rpc_timeouts;
    join_retries = get Metrics.Join_retries;
    lookup_retries = get Metrics.Lookup_retries;
    join_rejects = get Metrics.Join_rejects;
    promo_rejects = get Metrics.Promo_rejects;
  }

(* ---- adversarial surface ------------------------------------------------- *)


(* Campaign-event API: behaviours are read from shard contexts on every
   message, so flips must happen with all shards parked (global context) —
   the same discipline as every other campaign mutation. *)
let set_behaviour t router b = t.behaviours.(router) <- b

let router_groups t = t.groups

let is_tainted t id = Hashtbl.mem t.tainted id

let tainted_count t = Hashtbl.length t.tainted

(* ---- audit surface (doctor-side, not protocol) --------------------------- *)

type resident_view = {
  v_id : Id.t;
  v_router : int;
  v_succ : pointer option;
  v_succ_list : pointer list;
  v_pred : pointer option;
}

let residents_view t =
  let acc = ref [] in
  for router = 0 to Graph.n t.graph - 1 do
    let sh = shd t router in
    Store.iter_router sh.store router (fun s ->
        acc :=
          {
            v_id = Store.rid sh.store s;
            v_router = router;
            v_succ = Store.succ sh.store s;
            v_succ_list = Store.succ_list sh.store s;
            v_pred = Store.pred sh.store s;
          }
          :: !acc)
  done;
  List.sort (fun a b -> Id.compare a.v_id b.v_id) !acc

let locate t rid =
  match locate_slot t rid with
  | None -> None
  | Some (sh, s) -> Some (Store.owner sh.store s)

(* ---- fault injection (doctor test harness) ------------------------------- *)

(* Swap the successor pointers of the members at sorted positions 0 and n/2:
   a deterministic "loopy" whirl — every pointer still names a live member,
   so pairwise stabilisation confirms it, and only succ-list inversion
   evidence (the untwist repair, or the doctor's loopy-evidence check) can
   tell the ring went wrong.  Logged as raw pointer moves: a fault must not
   close stale windows reserved for genuine departures, but the oracle's
   mirror of the ring has to keep tracking the real pointers. *)
let inject_cross_splice t =
  let ms = Array.of_list (members t) in
  let n = Array.length ms in
  if n < 4 then None
  else begin
    let a = ms.(0) and b = ms.(n / 2) in
    match (locate_slot t a, locate_slot t b) with
    | Some (sha, sa), Some (shb, sb) ->
      let va = Store.succ sha.store sa and vb = Store.succ shb.store sb in
      Store.set_succ sha.store sa vb;
      Store.set_succ shb.store sb va;
      let now = Shard.now t.coord in
      sha.olog <- O_raw (now, a, Option.map fst vb) :: sha.olog;
      shb.olog <- O_raw (now, b, Option.map fst va) :: shb.olog;
      Some (a, b)
    | _ -> None
  end

let lookup_owner t ~from target =
  let guard_max = 4 * Graph.n t.graph in
  let router = ref from and best = ref target and best_d = ref (-1) in
  let hops = ref 0 and step = ref from in
  while !step >= 0 do
    let sh = shd t !router in
    step :=
      if !hops > guard_max then owner_dead
      else owner_step sh ~router:!router ~target ~best_d:!best_d ~best:!best;
    if !step >= 0 then begin
      router := !step;
      best := sh.ranked;
      best_d := sh.ranked_d;
      incr hops
    end
  done;
  if !step = owner_found then Some (shd t !router).ranked else None

let lookup_owner_batch t ~from ~targets =
  if Array.length from <> Array.length targets then
    invalid_arg "Proto.lookup_owner_batch: from/targets length mismatch";
  Array.map2 (fun from target -> lookup_owner t ~from target) from targets

(* ---- the α-branch owner walk ---------------------------------------------

   The same pure-read greedy walk as {!lookup_owner}, run by up to [alpha]
   branches of one lookup: branch 0 from the caller's router, the rest from
   diversified starts ({!branch_starts_into}).  Each pass steps every live
   branch once, in branch order; the first branch to reach a verdict wins
   and its live siblings are cancelled, so a tie between branches resolves
   to the lowest branch index.  Each hop is one [owner_step], priced by the
   link-state shortest path between its two routers, so a hop allocates
   nothing.  The pricing only warms
   memoised shortest-path trees: a lookup's result depends on the tables
   alone, never on the lookups walked before it.  At [alpha = 1] the verdict
   is exactly {!lookup_owner}'s. *)

type owner_walk = {
  w_alpha : int;
  mutable w_owner : Id.t;
  mutable w_winner : int;
  mutable w_branches : int;
  mutable w_cancelled : int;
  mutable w_wasted_hops : int;
  mutable w_wasted_link_hops : int;
  w_router : int array;
  w_hops : int array;
  w_link_hops : int array;
  w_latency_ms : float array;
  w_best : Id.t array;
  w_best_d : int array;
  w_live : Bytes.t;
}

let owner_walk ~alpha =
  if alpha < 1 then invalid_arg "Proto.owner_walk: alpha must be >= 1";
  {
    w_alpha = alpha;
    w_owner = Id.zero;
    w_winner = -1;
    w_branches = 0;
    w_cancelled = 0;
    w_wasted_hops = 0;
    w_wasted_link_hops = 0;
    w_router = Array.make alpha 0;
    w_hops = Array.make alpha 0;
    w_link_hops = Array.make alpha 0;
    w_latency_ms = Array.make alpha 0.0;
    w_best = Array.make alpha Id.zero;
    w_best_d = Array.make alpha (-1);
    w_live = Bytes.make alpha '\000';
  }

(* The lookup pays for its charged branch: the winner, or branch 0 when
   unresolved (what the α=1 walk would have done).  Every other branch's
   ring hops and link traversals are duplicate work. *)
let charged w = if w.w_winner >= 0 then w.w_winner else 0

(* One hop of branch [b]; [false] once the branch is done, with a verdict
   in [w_owner]/[w_winner] or dead. *)
let step_branch t w ~target ~guard_max b =
  w.w_hops.(b) <= guard_max
  &&
  let r = w.w_router.(b) in
  let sh = shd t r in
  let next = owner_step sh ~router:r ~target ~best_d:w.w_best_d.(b) ~best:w.w_best.(b) in
  if next >= 0 then begin
    let h = Linkstate.price_hop_into sh.s_ls r next ~latency:w.w_latency_ms b in
    if h >= 0 then w.w_link_hops.(b) <- w.w_link_hops.(b) + h;
    w.w_hops.(b) <- w.w_hops.(b) + 1;
    w.w_router.(b) <- next;
    w.w_best.(b) <- sh.ranked;
    w.w_best_d.(b) <- sh.ranked_d;
    true
  end
  else begin
    if next = owner_found then begin
      w.w_owner <- sh.ranked;
      w.w_winner <- b
    end;
    false
  end

let walk_owner t w ~from ~target =
  w.w_router.(0) <- from;
  let extra =
    branch_starts_into t ~from ~target ~out:w.w_router ~pos:1 ~max_extra:(w.w_alpha - 1)
  in
  for b = 0 to extra do
    w.w_hops.(b) <- 0;
    w.w_link_hops.(b) <- 0;
    w.w_latency_ms.(b) <- 0.0;
    w.w_best_d.(b) <- -1;
    Bytes.unsafe_set w.w_live b '\001'
  done;
  w.w_winner <- -1;
  w.w_branches <- extra + 1;
  w.w_cancelled <- 0;
  let guard_max = 4 * Graph.n t.graph in
  let live = ref (extra + 1) in
  while !live > 0 do
    let b = ref 0 in
    while !b <= extra && !live > 0 do
      if
        Bytes.unsafe_get w.w_live !b <> '\000'
        && not (step_branch t w ~target ~guard_max !b)
      then begin
        Bytes.unsafe_set w.w_live !b '\000';
        decr live;
        if w.w_winner >= 0 then begin
          w.w_cancelled <- !live;
          live := 0
        end
      end;
      incr b
    done
  done;
  let charged = charged w in
  w.w_wasted_hops <- 0;
  w.w_wasted_link_hops <- 0;
  for b = 0 to extra do
    if b <> charged then begin
      w.w_wasted_hops <- w.w_wasted_hops + w.w_hops.(b);
      w.w_wasted_link_hops <- w.w_wasted_link_hops + w.w_link_hops.(b)
    end
  done
