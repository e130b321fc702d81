module Id = Rofl_idspace.Id
module Proto = Rofl_proto.Proto
module Oracle = Rofl_proto.Oracle
module State = Rofl_proto.State
module Tune = Rofl_proto.Tune
module Types = Rofl_proto.Types
module Pcache = Rofl_proto.Pcache
module Pointer_cache = Rofl_core.Pointer_cache
module Network = Rofl_intra.Network
module Invariant = Rofl_intra.Invariant
module Net = Rofl_inter.Net
module Interinvariant = Rofl_inter.Interinvariant

type violation = { check : string; subject : string; detail : string; at_ms : float }

let fingerprint v = v.check ^ ":" ^ v.subject

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s at t=%.1fms: %s" v.check v.subject v.at_ms v.detail

let to_string v = Format.asprintf "%a" pp_violation v

(* ---- proto-level checks ------------------------------------------------- *)

let proto_checks ~stale_grace_ms ~at_ms (p : Proto.t) =
  let out = ref [] in
  let emit check subject fmt =
    Printf.ksprintf (fun detail -> out := { check; subject; detail; at_ms } :: !out) fmt
  in
  let short = Id.to_short_string in
  let views = Proto.residents_view p in
  (* Residency oracle and resident state must describe the same membership:
     every resident registered where it lives, no identifier resident twice,
     no oracle member without backing state. *)
  List.iter
    (fun (vw : Proto.resident_view) ->
      match Proto.locate p vw.v_id with
      | Some r when r = vw.v_router -> ()
      | Some r ->
        emit "oracle-agreement" (short vw.v_id) "resident at router %d, oracle says %d"
          vw.v_router r
      | None ->
        emit "oracle-agreement" (short vw.v_id) "resident at router %d, unknown to oracle"
          vw.v_router)
    views;
  let rec dups = function
    | (a : Proto.resident_view) :: (b : Proto.resident_view) :: rest ->
      if Id.equal a.v_id b.v_id then
        emit "duplicate-resident" (short a.v_id) "resident at routers %d and %d"
          a.v_router b.v_router;
      dups (b :: rest)
    | _ -> ()
  in
  dups views;
  let rec members_covered ms (vs : Proto.resident_view list) =
    match (ms, vs) with
    | [], _ -> ()
    | m :: ms', [] ->
      emit "oracle-agreement" (short m) "oracle member with no resident state";
      members_covered ms' []
    | m :: ms', vw :: vs' ->
      let c = Id.compare m vw.v_id in
      if c = 0 then members_covered ms' vs'
      else if c < 0 then begin
        emit "oracle-agreement" (short m) "oracle member with no resident state";
        members_covered ms' vs
      end
      else members_covered ms vs'
  in
  members_covered (Proto.members p) views;
  (* Successor-list hygiene per resident: the backup tail holds distinct
     entries in strictly increasing clockwise distance, never the holder,
     never a duplicate of the successor; and no backup may be strictly
     closer than the successor itself — that inversion is the loopy-ring
     evidence pairwise stabilisation cannot see. *)
  List.iter
    (fun (vw : Proto.resident_view) ->
      let self = vw.v_id in
      let subject = short self in
      List.iter
        (fun (i, _) ->
          if Id.equal i self then
            emit "succ-list-self" subject "backup list contains the holder itself")
        vw.v_succ_list;
      let rec ordered = function
        | (a, _) :: (((b, _) :: _) as rest) ->
          if Id.compare_dist self a self b >= 0 then
            emit "succ-list-order" subject "backups %s, %s out of clockwise order"
              (short a) (short b);
          ordered rest
        | _ -> ()
      in
      ordered vw.v_succ_list;
      match vw.v_succ with
      | Some (s, _) ->
        if List.exists (fun (i, _) -> Id.equal i s) vw.v_succ_list then
          emit "succ-list-dup" subject "successor %s repeated in backups" (short s);
        if not (Id.equal s self) then
          List.iter
            (fun (b, _) ->
              if (not (Id.equal b self)) && Id.compare_dist self b self s < 0 then
                emit "loopy-evidence" subject
                  "backup %s strictly closer than successor %s" (short b) (short s))
            vw.v_succ_list
      | None -> ())
    views;
  (* Pointer caches must respect their configured capacity: an entry count
     past the cap means insert/evict bookkeeping broke. *)
  let caches = p.Types.pcaches in
  if not (Array.for_all (fun (c : Pcache.t) -> c.len <= c.cap) caches) then
    emit "pcache-capacity" "proto"
      "a router's pointer cache exceeds its configured capacity (%d entries total)"
      (Array.fold_left (fun acc (c : Pcache.t) -> acc + c.len) 0 caches);
  (* Network-size estimation drift: on a converged ring of reasonable size,
     the median of the per-node density estimates must land within a small
     factor of the true membership.  Per-node samples are Erlang-noisy
     (individual nodes can be off by 8x), so only the median is checked —
     it is also the only quantity the auto-tuner consumes.  Gated on
     convergence and >= 64 members: tiny or mid-repair rings estimate from
     stale spans and legitimately miss. *)
  let n_members = List.length (Proto.members p) in
  if n_members >= 64 && Proto.ring_converged p then begin
    let nhat = Tune.estimate_n p in
    let actual = float_of_int n_members in
    if nhat < actual /. 4.0 || nhat > actual *. 4.0 then
      emit "nhat-drift" "proto"
        "median size estimate %.0f vs %d members (beyond factor 4)" nhat n_members
  end;
  (* A stale successor window still open past the repair grace means
     detection/failover stopped working (e.g. the stabilizer died). *)
  List.iter
    (fun (rid, since) ->
      let open_ms = at_ms -. since in
      if open_ms > stale_grace_ms then
        emit "stale-grace" (short rid)
          "successor stale for %.0f ms (grace %.0f ms)" open_ms stale_grace_ms)
    (Oracle.stale_open_since p);
  (* ---- attack-detection invariants.  These audit the *declared* policy
     ([Proto.config]), not the enforcement switch: a ring that declares a
     diversity quota but runs with [quota_enforce = false] is exactly the
     configuration whose saturation these checks exist to surface. *)
  let cfg = Proto.config p in
  let groups = p.Types.groups in
  (* Eclipse saturation: more *admitted* backups from one diversity group
     (PoP) than the declared per-group quota.  A backup tail monopolised by
     one group is one coordinated crash away from a black hole — the
     structural signature of a sybil eclipse.  Infrastructure entries (a
     router's own label hosted at itself) are exempt, mirroring the
     enforcement filter: their placement is the operator's topology, and
     small rings legitimately run same-PoP label streaks. *)
  if cfg.Proto.succ_quota > 0 && Array.length groups > 0 then
    List.iter
      (fun (vw : Proto.resident_view) ->
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (b, r) ->
            if not (Rofl_idspace.Id.equal b (State.router_label r)) then
              let g = groups.(r) in
              Hashtbl.replace counts g
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
          vw.v_succ_list;
        Hashtbl.iter
          (fun g c ->
            if c > cfg.Proto.succ_quota then
              emit "eclipse-saturation" (short vw.v_id)
                "%d of %d backups from group %d (quota %d)" c
                (List.length vw.v_succ_list)
                g cfg.Proto.succ_quota)
          counts)
      views;
  (* Poisoned pointers: an identifier referenced by someone's pointer state
     (successor, backup tail, predecessor, or a pointer-cache entry) that
     was never admitted to the ring.  Residents only learn identifiers from
     protocol messages, so a never-admitted pointee means a router
     fabricated it — the Poison_succs signature. *)
  let poisoned = Hashtbl.create 8 in
  let suspect id ~holder ~via =
    if not (Oracle.ever_member p id) then
      if not (Hashtbl.mem poisoned id) then begin
        Hashtbl.replace poisoned id ();
        emit "poison-residency" (short id) "%s pointer of %s names a never-admitted id"
          via holder
      end
  in
  List.iter
    (fun (vw : Proto.resident_view) ->
      let holder = short vw.v_id in
      (match vw.v_succ with Some (s, _) -> suspect s ~holder ~via:"successor" | None -> ());
      List.iter (fun (b, _) -> suspect b ~holder ~via:"backup") vw.v_succ_list;
      match vw.v_pred with Some (pr, _) -> suspect pr ~holder ~via:"predecessor" | None -> ())
    views;
  Array.iteri
    (fun router (c : Pcache.t) ->
      for i = 0 to c.len - 1 do
        suspect c.ids.(i) ~holder:(Printf.sprintf "router-%d" router) ~via:"pointer-cache"
      done)
    caches;
  (* Forged admissions: residents whose join claim failed verification but
     were admitted anyway (only possible with [verify_joins] off) — the
     ground truth behind the headline unverified-join hole. *)
  List.iter
    (fun (vw : Proto.resident_view) ->
      if Hashtbl.mem p.Types.tainted vw.v_id then
        emit "forged-admission" (short vw.v_id)
          "resident at router %d was admitted under a failed identity proof"
          vw.v_router)
    views;
  (* Pointer-cache diversity quota: enforcement bookkeeping, symmetric to
     pcache-capacity — if insertion's group accounting broke, some cache
     holds more entries of one group than its admission quota allows. *)
  if cfg.Proto.quota_enforce && not (Array.for_all Pcache.group_quota_ok caches) then
    emit "pcache-quota" "proto"
      "a router's pointer cache exceeds the per-group quota of %d" cfg.Proto.succ_quota;
  List.rev !out

(* ---- pointer-cache agreement -------------------------------------------- *)

let pointer_cache_checks ~at_ms ~subject cache =
  List.map
    (fun detail -> { check = "pointer-cache-agreement"; subject; detail; at_ms })
    (Pointer_cache.audit cache)

(* ---- wrappers over the existing point checks ---------------------------- *)

let of_report ~at_ms ~check ~subject (violations : string list) =
  List.map (fun detail -> { check; subject; detail; at_ms }) violations

let intra_checks ?(routability_samples = 0) ~at_ms (net : Network.t) =
  let r = Invariant.check net in
  let base = of_report ~at_ms ~check:"intra-invariant" ~subject:"intra" r.violations in
  let routes =
    if routability_samples <= 0 then []
    else begin
      let rr = Invariant.check_routability net ~samples:routability_samples in
      let vs = of_report ~at_ms ~check:"intra-routability" ~subject:"intra" rr.violations in
      if rr.Invariant.inconclusive then
        {
          check = "intra-routability";
          subject = "intra";
          detail =
            Printf.sprintf "inconclusive: 0 of %d draws routable with %d members checked"
              rr.Invariant.samples_drawn rr.Invariant.checked_members;
          at_ms;
        }
        :: vs
      else vs
    end
  in
  let caches =
    Array.to_list net.Network.routers
    |> List.concat_map (fun (r : Network.router) ->
           pointer_cache_checks ~at_ms
             ~subject:(Printf.sprintf "router-%d" r.Network.idx)
             r.Network.cache)
  in
  base @ routes @ caches

let inter_checks ?(routability_samples = 0) ~at_ms (net : Net.t) =
  let r = Interinvariant.check net in
  let base =
    of_report ~at_ms ~check:"inter-invariant" ~subject:"inter"
      r.Interinvariant.violations
  in
  let routes =
    if routability_samples <= 0 then []
    else
      of_report ~at_ms ~check:"inter-routability" ~subject:"inter"
        (Interinvariant.check_routability net ~samples:routability_samples)
          .Interinvariant.violations
  in
  base @ routes

(* ---- service-layer checks ------------------------------------------------ *)

module Directory = Rofl_services.Directory
module Provider_store = Rofl_services.Provider_store
module Resolver = Rofl_services.Resolver

let ring_owner members id =
  let n = Array.length members in
  if n = 0 then None
  else begin
    (* least index whose member is > id; the owner sits just before it *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Id.compare members.(mid) id <= 0 then lo := mid + 1 else hi := mid
    done;
    Some members.(if !lo = 0 then n - 1 else !lo - 1)
  end

let services_checks ~at_ms (dir : Directory.t) =
  let out = ref [] in
  let emit check subject fmt =
    Printf.ksprintf (fun detail -> out := { check; subject; detail; at_ms } :: !out) fmt
  in
  let short = Id.to_short_string in
  let proto = Directory.proto dir in
  let store = Directory.store dir in
  let cfg = Directory.config dir in
  (* No expired record may outlive the sweep cadence by more than the grace:
     a record still resident grace-past its TTL means the expiry sweep
     stopped (or a refresh wrote a past deadline).  The grace is two
     republish periods — a full period for the sweep that should have
     caught it, and another for scheduling slack. *)
  let grace = 2.0 *. Directory.republish_period_ms in
  Provider_store.iter store (fun s ->
      let deadline = Provider_store.expires_ms store s +. grace in
      if deadline < at_ms then
        emit "svc-expiry"
          (Printf.sprintf "%s@%d" (short (Provider_store.service store s))
             (Provider_store.owner store s))
          "record expired at %.1fms still resident %.1fms past grace"
          (Provider_store.expires_ms store s)
          (at_ms -. deadline));
  (* After reconvergence, every intent's current placement must sit with the
     ring owner of its service identifier — the walk that placed it and the
     membership oracle must agree.  Only checked when the ring is converged
     (mid-repair placement is legitimately behind); decaying copies at old
     owners are exempt, since only the *current* placement is consulted. *)
  if Proto.ring_converged proto then begin
    let members = Array.of_list (Proto.members proto) in
    for k = 0 to Directory.intent_count dir - 1 do
      if Directory.intent_active dir k then begin
        let s = Directory.intent_placement dir k in
        if s >= 0 then begin
          let service = Directory.intent_service dir k in
          match ring_owner members service with
          | None -> ()
          | Some owner_id ->
            let owner_router = Proto.locate proto owner_id in
            let placed_router = Provider_store.owner store s in
            (match owner_router with
             | Some r when r = placed_router -> ()
             | Some r ->
               emit "svc-residency"
                 (Printf.sprintf "%s/%s" (short service)
                    (short (Directory.intent_provider dir k)))
                 "record placed at router %d, ring owner %s lives at %d"
                 placed_router (short owner_id) r
             | None ->
               emit "svc-residency"
                 (Printf.sprintf "%s/%s" (short service)
                    (short (Directory.intent_provider dir k)))
                 "ring owner %s unknown to the residency oracle" (short owner_id))
        end
      end
    done
  end;
  (* No resolver may have served an answer decayed past its grace window —
     the cache-side half of the TTL discipline.  The counter only moves when
     the serve-stale fault knob is on (or a freshness bug slips in). *)
  let served = Directory.served_expired_total dir in
  if served > 0 then
    emit "svc-stale-serve" "resolvers"
      "%d answers served from entries decayed past the %.0fms grace window"
      served cfg.Directory.cache.Resolver.stale_grace_ms;
  List.rev !out
