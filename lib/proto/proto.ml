module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Pool = Rofl_util.Pool
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
module Identity = Rofl_crypto.Identity
open Types
open State

type t = Types.t

type config = Types.config = {
  stabilize_period_ms : float;
  join_timeout_ms : float;
  lookup_timeout_ms : float;
  untwist : bool;
  lookup_alpha : int;
  pcache_capacity : int;
  stabilize_auto : bool;
  verify_joins : bool;
  succ_quota : int;
  quota_enforce : bool;
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

type lookup_outcome = Types.lookup_outcome = {
  target : Id.t;
  issued_ms : float;
  completed_ms : float;
  ok : bool;
  attempts : int;
}

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

let is_member t rid = locate_slot t rid <> None

let coordinator t = t.coord

let shard_count t = Array.length t.sh

let shard_of_router t router = t.shard_of.(router)

let metrics t =
  let m = Metrics.create ~routers:(Graph.n t.graph) in
  Array.iter (fun sh -> Metrics.merge_into ~dst:m sh.s_metrics) t.sh;
  m

let config t = t.cfg

let lookups_outstanding t =
  Array.fold_left (fun acc sh -> acc + sh.lookups_open) 0 t.sh

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

(* Every queued entry is a message for, or a timer of, the router its int
   names.  Join splices, stabilisation replies and departures are handled
   here; the chase, lookup answers, probe timeouts and promotion challenges
   belong to {!Chase} and {!Probe}. *)
let handle t at (m : message) =
  match m with
  | Join_req _ | Lookup_req _ -> Chase.forward t ~at m
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
       Oracle.log sh (O_join (now, joining));
       Oracle.log sh (O_repoint (now, joining, Some (Store.succ_rid sh.store s)));
       Metrics.incr sh.s_metrics Metrics.Joins_done 1
     | Some _ | None -> () (* a duplicate, or superseded by a move elsewhere *))
  | Get_pred { asker; asker_router; target; token } ->
    let sh = shd t at in
    let poisoned = t.behaviours.(at) = Poison_succs in
    let s = find_slot t at target in
    if s < 0 then begin
      if poisoned && not (Oracle.ever_member t target) then begin
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
        Oracle.repoint t ~router:at s (Some (pred_id, pred_router));
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
        Oracle.repoint t ~router:at s (pointer_opt new_succ_id new_succ_router);
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
    Chase.lookup_resp t ~at ~token ~owner_id ~owner_router ~hops
  | Verify_req { claimant; asker_router; token; challenge } ->
    Probe.verify_req t ~at ~claimant ~asker_router ~token challenge
  | Verify_resp { token; resp } -> Probe.verify_resp t ~at ~token resp
  | Probe_timeout { rid; sid; srouter; token; attempt } ->
    Probe.on_timeout t ~router:at rid ~sid ~srouter ~token attempt
  | Timer f -> f ()

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
  let cap_list = Tune.cap_list cfg ~population:(n + bootstrap_hosts) in
  let sh =
    Array.init k (fun _ ->
        {
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
          olog = []; lookups_open = 0; ranked = Id.zero; ranked_d = 0;
        })
  in
  (* Bootstrap shortcut: the identifier ring is spliced locally at time zero
     (the synchronous simulation charges this as the §3.1 flood; here we
     start from its outcome and let everything AFTER happen by message). *)
  let arr =
    List.sort (fun (a, _) (b, _) -> Id.compare a b) !boot |> Array.of_list
  in
  (* [exec] reads [t] back from [self]: the coordinator is built before [t]
     exists. *)
  let self = ref None in
  let exec at m = match !self with Some t -> handle t at m | None -> () in
  let t =
    {
      graph;
      cfg;
      coord = Shard.create ?pool ~exec ~shards:k ~window_ms:window ();
      shard_of;
      rails = Array.make n 0;
      tokens = Array.make n 0;
      sh;
      pool;
      oracle = Oracle.create ~hint:(2 * (n + bootstrap_hosts)) arr;
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
      stab_on = false; rounds = 0; leaves_done = 0; moves_done = 0; crashes_done = 0;
      auto_nhat = 0.0; auto_rate = 0.0; auto_mult = 1.0; auto_sl_limit = succ_list_len - 1;
      auto_last_deaths = 0; auto_last_ms = 0.0; auto_rounds = 0;
      refresh_on = false;
    }
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
  self := Some t;
  t

let lookup_async t ~from target cb =
  let sh = shd t from in
  let st =
    { origin = from; lk_target = target; lk_issued = now_at t from; lk_attempts = 0;
      lk_token = -1; lk_tokens = []; lk_outstanding = 0; finished = false; cb }
  in
  sh.lookups_open <- sh.lookups_open + 1;
  Chase.start_lookup_attempt t st

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

(* Join admission: the gateway checks the presented credential in one
   challenge/response round trip on the access link, synchronously, charged
   as two "verify" messages (the host sits at its gateway, so no graph
   latency is modelled). *)
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
      Oracle.admit t joining;
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
    Oracle.depart t rid;
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
      Oracle.repoint t ~router s (Some (bid, brouter));
      (* Re-sorting places the demoted old successor at its true clockwise
         rank. *)
      adopt_staged t sh s ~self:rid ~succ:bid;
      send_direct t ~cat:Metrics.Repair ~from:router ~dest:brouter
        (Notify { candidate = rid; candidate_router = router; target = bid })
    end
  end

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
    Probe.send t ~router rid ~sid:(Store.succ_rid store s) ~srouter 1
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
  if t.cfg.stabilize_auto then Tune.auto_retune t ~now;
  match t.pool with
  | Some p when Array.length t.sh > 1 && Pool.jobs p > 1 ->
    ignore (Pool.map p (fun sx -> stabilize_shard t ~now sx) (List.init (Array.length t.sh) Fun.id))
  | _ ->
    for sx = 0 to Array.length t.sh - 1 do
      stabilize_shard t ~now sx
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
    Refresh.start t
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

(* ---- adversarial surface and audit views ------------------------------- *)

let set_behaviour t router b = t.behaviours.(router) <- b

let tainted_count t = Hashtbl.length t.tainted

type resident_view = {
  v_id : Id.t;
  v_router : int;
  v_succ : (Id.t * int) option;
  v_succ_list : (Id.t * int) list;
  v_pred : (Id.t * int) option;
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

(* Logged as raw pointer moves: a fault must not close stale windows
   reserved for genuine departures, but the oracle's mirror of the ring has
   to keep tracking the real pointers. *)
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
      Oracle.log sha (O_raw (now, a, Option.map fst vb));
      Oracle.log shb (O_raw (now, b, Option.map fst va));
      Some (a, b)
    | _ -> None
  end

let lookup_owner_batch t ~from ~targets =
  if Array.length from <> Array.length targets then
    invalid_arg "Proto.lookup_owner_batch: from/targets length mismatch";
  Array.map2 (fun from target -> Owner.lookup_owner t ~from target) from targets
