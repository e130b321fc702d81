module Id = Rofl_idspace.Id
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
open Types
open State

(* A router's best local knowledge of a target: the identifier closest to
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

(* Start routers for the extra branches of an α-parallel lookup, drawn from
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

(* A join finds its predecessor by the greedy forwarding that carries
   lookups (the paper's Alg. 1 routes with Alg. 2), so both requests run
   this one chase.  Each router re-ranks on receipt (one link traversal per
   event), but the request stays committed to the closest candidate seen so
   far, so transit routers with worse local knowledge cannot make it
   oscillate.  A committed candidate absent where it should reside may be
   mid-join (its state materialises when its own [Join_resp] lands): wait
   [stuck_wait_ms], at most [stuck_wait_limit] times, then avoid it and
   re-chase.  The join and lookup timers are the backstops.  The message
   picks the rest: on arrival a join splices and a lookup answers; at a
   dead end a join is dropped and a lookup answers "no owner".  Every step
   of a request, delivered or rescheduled, enters through [forward], so its
   behaviour seam sees every hop of a lookup; the re-chase after a dead
   candidate calls [forward] directly. *)

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
    forward t ~at
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
      Oracle.repoint t ~router:at s (Some (joining, gateway));
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

(* A request at a router: a lookup meets the router's conduct first. *)
and forward t ~at (m : message) =
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
  | _ -> chase t ~at m

(* ---- lookup attempts ---------------------------------------------------- *)

let pcache_insert t router id orouter =
  if Array.length t.pcaches > 0 then
    Pcache.insert t.pcaches.(router) ~now:(now_at t router) id orouter

(* A branch's answer at the origin [at]. *)
let rec lookup_resp t ~at ~token ~owner_id ~owner_router ~hops =
  let sh = shd t at in
  match Inttbl.find sh.lookups token with
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
    end

and finish_lookup t st ~ok =
  let sh = shd t st.origin in
  st.finished <- true;
  sh.lookups_open <- sh.lookups_open - 1;
  st.cb
    { target = st.lk_target; issued_ms = st.lk_issued; completed_ms = now_at t st.origin;
      ok; attempts = st.lk_attempts }

and start_lookup_attempt t st =
  let sh = shd t st.origin in
  st.lk_attempts <- st.lk_attempts + 1;
  let token = fresh_token t st.origin in
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
      let btoken = fresh_token t st.origin in
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

