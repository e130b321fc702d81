module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Metrics = Rofl_netsim.Metrics
module Identity = Rofl_crypto.Identity
open Types
open State

(* One probe of a resident's successor, with timeout/retry/backoff; when
   every retry times out the successor is declared dead and the first live
   backup is promoted (Chord successor-list failover).  The timeout names
   (router, rid), never the slot: slots are recycled on departure, so it
   re-resolves when it fires and only acts if the resident is still here
   with the same pointer. *)
let rec send t ~router rid ~sid ~srouter attempt =
  let sh = shd t router in
  let token = fresh_token t router in
  Inttbl.replace sh.probes token ();
  send_direct t ~cat:Metrics.Stabilize ~from:router ~dest:srouter
    (Get_pred { asker = rid; asker_router = router; target = sid; token });
  let timeout =
    rpc_timeout_ms *. (rpc_backoff ** float_of_int (attempt - 1))
  in
  sched t ~rail:router ~at:router ~time_ms:(now_at t router +. timeout)
    (Probe_timeout { rid; sid; srouter; token; attempt })

and on_timeout t ~router rid ~sid ~srouter ~token attempt =
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
        send t ~router rid ~sid ~srouter (attempt + 1)
      else failover t ~router s sid
    end
    else Store.set_probe_inflight sh.store s false
  end

(* The successor is unresponsive: drop it and promote the next backup.  With
   an exhausted backup list, fall back on the local router's default
   identifier — always alive — and let stabilisation walk the pointer back
   into place.

   With [verify_joins] on, each candidate is first challenged at its claimed
   router (one round trip, one rpc timeout, no retries); a failed or
   unanswered challenge moves on to the next.  The probe-inflight flag stays
   set across the chain, so the stabiliser cannot start a second failover
   for the same pointer; every settling path clears it. *)
and failover t ~router s dead =
  let sh = shd t router in
  Metrics.incr sh.s_metrics Metrics.Failovers 1;
  let rid = Store.rid sh.store s in
  let backups =
    List.filter (fun (i, _) -> not (Id.equal i dead)) (Store.succ_list sh.store s)
  in
  match backups with
  | c :: rest when not t.cfg.verify_joins -> promote t ~router rid ~dead c rest
  | _ -> try_promote t ~router rid ~dead backups

and promote_anchor t ~router s rid =
  let sh = shd t router in
  let anchor = router_label router in
  if Id.equal anchor rid then Oracle.repoint t ~router s (Store.pred sh.store s)
  else begin
    Oracle.repoint t ~router s (Some (anchor, router));
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
        if ok then promote t ~router rid ~dead (nid, nrouter) rest
        else begin
          Metrics.incr sh.s_metrics Metrics.Promo_rejects 1;
          try_promote t ~router rid ~dead rest
        end
      end
      else begin
        let token = fresh_token t router in
        (* Challenge bytes are content-keyed on (asker, candidate): the
           handshake outcome is then a function of the workload alone,
           identical at any shard or job count. *)
        let challenge =
          Identity.fresh_challenge
            (Prng.create (Hashtbl.hash (Id.to_bytes rid, Id.to_bytes nid, 0x7e11f)))
        in
        let k ok =
          if ok then promote t ~router rid ~dead (nid, nrouter) rest
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

(* Move the pointer to a candidate that passed the check (or, with
   verification off, took none). *)
and promote t ~router rid ~dead (nid, nrouter) rest =
  let sh = shd t router in
  let s = find_slot t router rid in
  if s >= 0 then begin
    Store.set_probe_inflight sh.store s false;
    if Store.succ_router sh.store s >= 0 && Id.equal (Store.succ_rid sh.store s) dead
    then begin
      Oracle.repoint t ~router s (Some (nid, nrouter));
      Store.set_succ_list sh.store s rest;
      send_direct t ~cat:Metrics.Repair ~from:router ~dest:nrouter
        (Notify { candidate = rid; candidate_router = router; target = nid })
    end
    (* else: the pointer moved on during verification; leave it be *)
  end

(* A failover asker is challenging [claimant]'s residency at [at].  Only a
   resident admitted with its credential can produce a valid tag; an honest
   router reports absence outright, and a poisoned router's vouch for a
   ghost is indistinguishable from absence to the verifier — it does not
   hold the key either way, so replying [None] loses it nothing and keeps
   the wire model small. *)
let verify_req t ~at ~claimant ~asker_router ~token challenge =
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

let verify_resp t ~at ~token resp =
  let sh = shd t at in
  match Inttbl.find sh.verifies token with
  | vs when not vs.v_done ->
    vs.v_done <- true;
    Inttbl.remove sh.verifies token;
    let ok =
      match resp with
      | Some r -> Identity.check_response ~claimed:vs.v_claimed vs.v_challenge r
      | None -> false
    in
    vs.v_k ok
  | _ | (exception Not_found) -> ()
