module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Stats = Rofl_util.Stats
module Graph = Rofl_topology.Graph
module Isp = Rofl_topology.Isp
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
module Proto = Rofl_proto.Proto
module Oracle = Rofl_proto.Oracle
module Owner = Rofl_proto.Owner
module State = Rofl_proto.State
module Tune = Rofl_proto.Tune
module Types = Rofl_proto.Types
module Identity = Rofl_crypto.Identity
module Churn = Rofl_workload.Churn
module Hostdist = Rofl_workload.Hostdist
module Artifact = Rofl_doctor.Artifact
module Audit = Rofl_doctor.Audit
module Checks = Rofl_doctor.Checks

type params = {
  horizon_ms : float;
  arrival_rate_per_s : float;
  mean_lifetime_s : float;
  move_fraction : float;
  crash_fraction : float;
  lookup_rate_per_s : float;
  lookup_warmup_ms : float;
  drain_max_ms : float;
  bootstrap_hosts : int;
  proto_cfg : Proto.config;
}

let default_params =
  {
    horizon_ms = 20_000.0;
    arrival_rate_per_s = 1.0;
    mean_lifetime_s = 10.0;
    move_fraction = 0.1;
    crash_fraction = 0.2;
    lookup_rate_per_s = 10.0;
    lookup_warmup_ms = 1_000.0;
    drain_max_ms = 30_000.0;
    bootstrap_hosts = 0;
    proto_cfg = Proto.default_config;
  }

type report = {
  name : string;
  params : params;
  joins : int;
  leaves : int;
  moves : int;
  crashes : int;
  join_failures : int;
  lookups : int;
  lookups_ok : int;
  success_rate : float;       (* 1.0 when no lookup was launched *)
  lat_p50_ms : float;         (* over successful lookups; 0 when none *)
  lat_p95_ms : float;
  lat_p99_ms : float;
  stale_count : int;
  stale_p95_ms : float;
  stale_unrepaired : int;
  reconverged : bool;
  reconverge_ms : float;      (* time from the last churn event to convergence *)
  failovers : int;
  rpc_timeouts : int;
  wasted_hops : int;          (* losing α-branch traversals (duplicate work) *)
  cancellations : int;        (* cooperative branch cancellations issued *)
  auto_state : (float * float * int) option; (* N̂, period mult, succ-list cap *)
  ctrl_msgs : (string * int) list; (* per category, sorted *)
  total_msgs : int;
  msgs_per_event : float;
  peak_queue : int;
  events_executed : int;
  event_fingerprint : int;
  sim_end_ms : float;
  audit : Audit.summary option;
  join_rejects : int;         (* join claims turned away by verification *)
  promo_rejects : int;        (* failover candidates that failed verification *)
  tainted : int;              (* forged identifiers resident at campaign end *)
  sybils : int;               (* mined sybil identifiers joined by an Eclipse fault *)
  grind_draws : int;          (* keypair draws the attacker paid to mine them *)
  victim_capture : float;     (* pre-crash victim-arc sweep: fraction of targets
                                 resolving to a sybil; -1 without an eclipse *)
  victim_repair : float;      (* post-drain victim-arc sweep: fraction resolving
                                 to the true owner; -1 without an eclipse *)
}

(* Derivation seams: every random stream of a campaign is its own generator
   derived from (seed, purpose), and all draws happen either before the
   engine runs or inside engine events (whose order is deterministic), so a
   campaign is a pure function of (seed, graph, params) — the property the
   jobs-determinism tests pin. *)
let stream seed purpose = Prng.create (Hashtbl.hash (seed, purpose, 0x0c4a7))

(* Per-event randomness is keyed by the event itself, never by its position
   in the trace: dropping an event during shrinking must not reshuffle the
   gateway of every later one, or the shrinker's oracle would be chasing a
   different campaign on every candidate. *)
let gateway_for ~seed gateways kind seq =
  let r = Prng.create (Hashtbl.hash (seed, "gateway", kind, seq, 0x0c4a7)) in
  gateways.(Prng.int r (Array.length gateways))

(* Fresh identifiers for every session, unique against the bootstrap router
   labels and each other. *)
let session_ids ~seed ~taken n =
  let rng = stream seed "session-ids" in
  let used = Hashtbl.create (2 * n) in
  List.iter (fun id -> Hashtbl.replace used id ()) taken;
  Array.init n (fun _ ->
      let rec fresh () =
        let id = Id.random rng in
        if Hashtbl.mem used id then fresh ()
        else begin
          Hashtbl.replace used id ();
          id
        end
      in
      fresh ())

let percentile_or xs p ~default =
  match xs with [] -> default | _ -> Stats.percentile xs p

(* First member strictly clockwise of [id]: the far end of the arc [id]
   owns under the data plane's predecessor-owner semantics.  [id] itself
   when the list is empty. *)
let ring_successor members id =
  List.fold_left
    (fun best m ->
      if Id.equal m id then best
      else
        match best with
        | None -> Some m
        | Some b -> if Id.compare_dist id m id b < 0 then Some m else best)
    None members
  |> Option.value ~default:id

(* Keypair-mining budget per sybil: expected draws per hit is the member
   count (the arc is ~1/n of the ring), so this covers rings four orders of
   magnitude larger than the attack campaigns run. *)
let sybil_grind_budget = 500_000

(* Victim-arc SLO sweep: 64 identifiers sampled uniformly from the arc the
   victim's label owns, resolved with the pure-read data-plane walk from
   content-keyed gateways.  Uniform sampling matters: under
   predecessor-owner semantics a resident sybil captures exactly the
   sub-arc clockwise of it, so uniform targets measure the captured share
   of the victim's keyspace. *)
let victim_sweep_len = 64

let churn_events ~seed (p : params) =
  Churn.generate (stream seed "churn") ~horizon_ms:p.horizon_ms
    ~arrival_rate_per_s:p.arrival_rate_per_s ~mean_lifetime_s:p.mean_lifetime_s
    ~move_fraction:p.move_fraction ~crash_fraction:p.crash_fraction ()
  |> List.map (fun e -> Artifact.Churn e)

let run_events ~seed ~name ~graph ~gateways ?audit ?(shards = 1) ?pool
    ?(groups = [||]) ?behaviours (p : params) events =
  if gateways = [||] then invalid_arg "Campaign.run_events: no gateway routers";
  (* Pre-size the per-shard lookup tables for the open-loop concurrency
     Little's law predicts (rate x worst-case response time). *)
  let lookup_hint =
    16
    + int_of_float
        (ceil (p.lookup_rate_per_s *. p.proto_cfg.Proto.lookup_timeout_ms /. 1000.0))
  in
  let proto =
    Proto.create ~rng:(stream seed "proto") ~cfg:p.proto_cfg ~shards ?pool
      ~bootstrap_hosts:p.bootstrap_hosts ~lookup_hint ~groups ?behaviours graph
  in
  let coord = Proto.coordinator proto in
  let trace =
    List.filter_map (function Artifact.Churn e -> Some e | Artifact.Fault _ -> None) events
  in
  let n_sessions =
    List.fold_left (fun acc ev -> max acc (Churn.event_seq ev + 1)) 0 trace
  in
  let ids = session_ids ~seed ~taken:(Proto.members proto) n_sessions in
  let planned =
    List.map
      (fun ev ->
        match ev with
        | Artifact.Churn (Churn.Join { at_ms; seq }) ->
          (at_ms, `Join (seq, gateway_for ~seed gateways "join" seq))
        | Artifact.Churn (Churn.Leave { at_ms; seq }) -> (at_ms, `Leave seq)
        | Artifact.Churn (Churn.Move { at_ms; seq }) ->
          (at_ms, `Move (seq, gateway_for ~seed gateways "move" seq))
        | Artifact.Churn (Churn.Crash { at_ms; seq }) -> (at_ms, `Crash seq)
        | Artifact.Fault (Artifact.Cross_splice { at_ms }) -> (at_ms, `Cross_splice)
        | Artifact.Fault (Artifact.Stab_off { at_ms }) -> (at_ms, `Stab_off)
        | Artifact.Fault (Artifact.Eclipse { at_ms; victim; count; crash_at_ms }) ->
          (at_ms, `Eclipse (victim, count, crash_at_ms))
        | Artifact.Fault (Artifact.Poison { at_ms; fraction }) ->
          (at_ms, `Poison fraction)
        | Artifact.Fault (Artifact.Forge { at_ms; count }) -> (at_ms, `Forge count))
      events
  in
  (* An eclipse carries two derived moments — the coordinated sybil crash
     and a pre-crash victim sweep — scheduled up front at plan time (their
     times are part of the fault, so the plan stays a pure function of the
     event list).  The sweep sits strictly between injection and crash so
     equal-time global ordering never matters. *)
  let planned =
    planned
    @ List.concat_map
        (function
          | Artifact.Fault (Artifact.Eclipse { at_ms; crash_at_ms; _ }) ->
            let sweep_at =
              if crash_at_ms >= 0.0 then
                Float.max (at_ms +. 0.25) (crash_at_ms -. 0.5)
              else p.horizon_ms
            in
            (sweep_at, `Victim_sweep)
            :: (if crash_at_ms >= 0.0 then [ (crash_at_ms, `Sybil_crash) ] else [])
          | _ -> [])
        events
  in
  (* Attack-lab state, written only inside global events. *)
  let sybils = ref [] in
  let sybil_set = Hashtbl.create 16 in
  let grind_draws = ref 0 in
  let eclipse_targets = ref None in
  let victim_capture = ref (-1.0) in
  (* Reconvergence is measured from the last *churn* event: injected faults
     are the thing being diagnosed, not workload to recover from. *)
  let last_event_ms =
    List.fold_left (fun acc ev -> Float.max acc (Churn.event_time ev)) 0.0 trace
  in
  (* Campaign-side session liveness, for lookup targeting: seq -> join time.
     Maintained by the scheduled churn events themselves. *)
  let live = Hashtbl.create 64 in
  (* Churn closures read and mutate state across every shard (departures,
     cross-shard joins), so they run as global events: every shard parked at
     the event's time — and global times are exactly the sync points the
     auditor samples, identical at any shard count. *)
  List.iter
    (fun (at_ms, action) ->
      Shard.at_global coord ~time_ms:at_ms (fun () ->
          match action with
          | `Join (seq, gw) ->
            Hashtbl.replace live seq at_ms;
            Proto.join proto ~gateway:gw ids.(seq)
          | `Leave seq ->
            Hashtbl.remove live seq;
            ignore (Proto.leave proto ids.(seq))
          | `Move (seq, gw) ->
            (* The session stays alive through a move; only its router
               changes.  Keep the original join time for warmup purposes. *)
            ignore (Proto.move proto ~new_gateway:gw ids.(seq))
          | `Crash seq ->
            Hashtbl.remove live seq;
            ignore (Proto.crash proto ids.(seq))
          | `Cross_splice -> ignore (Proto.inject_cross_splice proto)
          | `Stab_off -> Proto.stop_stabilizer proto
          | `Eclipse (victim, count, _) ->
            (* Mine self-certifying keypairs whose identifiers land in the
               arc the victim's label owns, then join them with their own
               (genuine!) credentials from content-keyed gateways.
               Verification admits them — mined identifiers really are
               hashes of their keys; that honest negative is the point.
               What the attacker buys: the victim's successor list fills
               with co-conspirators, armed for a coordinated crash. *)
            let vid = State.router_label victim in
            let arc_end = ring_successor (Proto.members proto) vid in
            let g =
              Prng.create (Hashtbl.hash (seed, "eclipse-mine", victim, 0x0c4a7))
            in
            let accept id =
              Id.between vid id arc_end
              && (not (Hashtbl.mem sybil_set id))
              && not (Proto.is_member proto id)
            in
            let rec mine k acc =
              if k = 0 then acc
              else begin
                let kp, draws = Identity.grind g ~accept ~budget:sybil_grind_budget in
                grind_draws := !grind_draws + draws;
                match kp with
                | None -> acc
                | Some kp ->
                  let sid = Identity.id_of_keypair kp in
                  Hashtbl.replace sybil_set sid ();
                  mine (k - 1) ((sid, kp) :: acc)
              end
            in
            let mined = List.rev (mine count []) in
            (* All sybils join through one content-keyed gateway: the
               attacker hosts them on machines it controls, which is also
               what concentrates the victim's backup tail in one diversity
               group — the pattern the per-PoP quota breaks up. *)
            let attacker_gw = gateway_for ~seed gateways "sybil" victim in
            List.iter
              (fun (sid, kp) -> Proto.join proto ~gateway:attacker_gw ~cred:kp sid)
              mined;
            sybils := mined;
            (* SLO probe targets: uniform over the arc the victim owns,
               fixed now so the pre-crash and post-drain sweeps measure the
               same keyspace.  Rejection sampling from a content-keyed
               stream; expected draws per target is the member count. *)
            let tg = Prng.create (Hashtbl.hash (seed, "victim-targets", victim, 0x0c4a7)) in
            let targets = Array.make victim_sweep_len vid in
            let budget = ref 5_000_000 in
            for i = 0 to victim_sweep_len - 1 do
              let rec draw () =
                decr budget;
                let id = Id.random tg in
                if Id.between vid id arc_end then id
                else if !budget <= 0 then Id.succ_id vid
                else draw ()
              in
              targets.(i) <- draw ()
            done;
            eclipse_targets := Some targets
          | `Sybil_crash ->
            List.iter (fun (sid, _) -> ignore (Proto.crash proto sid)) !sybils
          | `Poison fraction ->
            (* Flip a content-keyed subset of routers to successor-list
               poisoning: a partial Fisher–Yates over the router indices
               whose draws depend only on (seed, n), never on shard
               layout. *)
            let n = Graph.n graph in
            let k =
              max 0 (min n (int_of_float (Float.round (fraction *. float_of_int n))))
            in
            let g = Prng.create (Hashtbl.hash (seed, "poison-routers", 0x0c4a7)) in
            let order = Array.init n (fun i -> i) in
            for i = 0 to k - 1 do
              let j = i + Prng.int g (n - i) in
              let tmp = order.(i) in
              order.(i) <- order.(j);
              order.(j) <- tmp;
              Proto.set_behaviour proto order.(i) Types.Poison_succs
            done
          | `Forge count ->
            (* Joins claiming identifiers whose credentials belong to
               someone else — the workload the verification gate rejects
               (and, with it off, admits as tainted residents). *)
            let g = Prng.create (Hashtbl.hash (seed, "forge", 0x0c4a7)) in
            for i = 0 to count - 1 do
              let claimed = Id.random g in
              let cred = Identity.credential_for (Id.random g) in
              if not (Proto.is_member proto claimed) then
                Proto.join proto
                  ~gateway:(gateway_for ~seed gateways "forge" i)
                  ~cred claimed
            done
          | `Victim_sweep ->
            (match !eclipse_targets with
             | None -> ()
             | Some targets ->
               let og =
                 Prng.create (Hashtbl.hash (seed, "victim-origins", 0x0c4a7))
               in
               let captured = ref 0 in
               Array.iter
                 (fun target ->
                   let from = gateways.(Prng.int og (Array.length gateways)) in
                   match Owner.lookup_owner proto ~from target with
                   | Some owner when Hashtbl.mem sybil_set owner -> incr captured
                   | Some _ | None -> ())
                 targets;
               victim_capture :=
                 float_of_int !captured /. float_of_int victim_sweep_len)))
    planned;
  (* Open-loop lookup workload: Poisson launch times fixed up front, target
     and origin drawn at launch time from dedicated streams.  Outcomes
     accumulate in a bucket per origin shard — callbacks fire in shard
     context, where pushing onto another shard's list would race — and are
     merged into one deterministic order after the run. *)
  let buckets = Array.init (Proto.shard_count proto) (fun _ -> ref []) in
  let launched = ref 0 in
  let looktime_rng = stream seed "lookup-times" in
  let looktarget_rng = stream seed "lookup-targets" in
  let mean_gap_ms = 1000.0 /. p.lookup_rate_per_s in
  let rec plan_lookups at =
    let at = at +. Prng.exponential looktime_rng mean_gap_ms in
    if at < p.horizon_ms then begin
      Shard.at_global coord ~time_ms:at (fun () ->
          let eligible =
            Hashtbl.fold
              (fun seq joined acc ->
                if joined +. p.lookup_warmup_ms <= at then seq :: acc else acc)
              live []
            |> List.sort compare
          in
          let target =
            match eligible with
            | [] ->
              (* Nobody to look up yet: exercise the always-alive ring of
                 router identifiers instead of skipping the sample. *)
              State.router_label (Prng.int looktarget_rng (Graph.n graph))
            | _ ->
              let seq = List.nth eligible (Prng.int looktarget_rng (List.length eligible)) in
              ids.(seq)
          in
          let from = gateways.(Prng.int looktarget_rng (Array.length gateways)) in
          let bucket = buckets.(Proto.shard_of_router proto from) in
          incr launched;
          Proto.lookup_async proto ~from target (fun o -> bucket := o :: !bucket));
      plan_lookups at
    end
  in
  if p.lookup_rate_per_s > 0.0 then plan_lookups 0.0;
  (* The auditor rides the coordinator's monitor hook: a pure observer
     firing at shard sync points, so attaching one changes no table. *)
  let auditor =
    Option.map
      (fun cfg ->
        let a = Audit.create cfg proto in
        Audit.install a;
        a)
      audit
  in
  (* Run: stabilisation timers tick throughout; after the horizon, keep
     stabilising until the ring reconverges and every lookup has resolved. *)
  Proto.start_stabilizer proto;
  Shard.run_until coord p.horizon_ms;
  let deadline = p.horizon_ms +. p.drain_max_ms in
  let period = p.proto_cfg.Proto.stabilize_period_ms in
  let rec drain () =
    let now = Shard.now coord in
    if Proto.ring_converged proto && Proto.lookups_outstanding proto = 0 then Some now
    else if now >= deadline then None
    else begin
      Shard.run_until coord (now +. period);
      drain ()
    end
  in
  let converged_at = drain () in
  Proto.stop_stabilizer proto;
  let audit_summary =
    Option.map
      (fun a ->
        Audit.detach a;
        Audit.summary a)
      auditor
  in
  let s = Proto.stats proto in
  (* Merge the per-shard buckets into one order that no shard layout can
     perturb: completion time, then issue time, then target identifier. *)
  let outcomes =
    Array.to_list buckets
    |> List.concat_map (fun b -> List.rev !b)
    |> List.sort (fun (a : Proto.lookup_outcome) (b : Proto.lookup_outcome) ->
           let c = compare a.Proto.completed_ms b.Proto.completed_ms in
           if c <> 0 then c
           else
             let c = compare a.Proto.issued_ms b.Proto.issued_ms in
             if c <> 0 then c else Id.compare a.Proto.target b.Proto.target)
  in
  let ok_lat =
    List.filter_map
      (fun (o : Proto.lookup_outcome) ->
        if o.Proto.ok then Some (o.Proto.completed_ms -. o.Proto.issued_ms) else None)
      outcomes
  in
  let lookups_ok = List.length ok_lat in
  let lookups = List.length outcomes in
  let stale = Oracle.stale_windows proto in
  (* Post-drain victim sweep: did the ring repair the eclipsed arc?  Each
     target's ground truth is its ring owner (predecessor) among the
     *final* membership — the sybils are gone if the fault crashed them,
     so the truth is the victim's label again. *)
  let victim_repair =
    match !eclipse_targets with
    | None -> -1.0
    | Some targets ->
      let members = Array.of_list (Proto.members proto) in
      let og = Prng.create (Hashtbl.hash (seed, "victim-origins-post", 0x0c4a7)) in
      let good = ref 0 in
      Array.iter
        (fun target ->
          let truth = Checks.ring_owner members target in
          let from = gateways.(Prng.int og (Array.length gateways)) in
          match (Owner.lookup_owner proto ~from target, truth) with
          | Some owner, Some truth when Id.equal owner truth -> incr good
          | _ -> ())
        targets;
      float_of_int !good /. float_of_int victim_sweep_len
  in
  let joins_evt, leaves_evt, moves_evt, crashes_evt = Churn.count trace in
  let events_n = joins_evt + leaves_evt + moves_evt + crashes_evt in
  let sim_end = Shard.now coord in
  let m = Proto.metrics proto in
  {
    name;
    params = p;
    joins = s.Proto.joins_completed;
    leaves = s.Proto.leaves_completed;
    moves = s.Proto.moves_completed;
    crashes = s.Proto.crashes;
    join_failures = s.Proto.joins_failed;
    lookups;
    lookups_ok;
    success_rate =
      (if lookups = 0 then 1.0 else float_of_int lookups_ok /. float_of_int lookups);
    lat_p50_ms = percentile_or ok_lat 50.0 ~default:0.0;
    lat_p95_ms = percentile_or ok_lat 95.0 ~default:0.0;
    lat_p99_ms = percentile_or ok_lat 99.0 ~default:0.0;
    stale_count = List.length stale;
    stale_p95_ms = percentile_or stale 95.0 ~default:0.0;
    stale_unrepaired = Oracle.stale_open proto;
    reconverged = (match converged_at with Some _ -> true | None -> false);
    reconverge_ms =
      (match converged_at with
       | Some at -> Float.max 0.0 (at -. last_event_ms)
       | None -> Float.nan);
    failovers = s.Proto.failovers;
    rpc_timeouts = s.Proto.rpc_timeouts;
    wasted_hops = Metrics.get m Metrics.Wasted_hops;
    cancellations = Metrics.get m Metrics.Cancellations;
    auto_state = Tune.auto_state proto;
    ctrl_msgs = Metrics.categories m;
    total_msgs = s.Proto.messages;
    msgs_per_event =
      (if events_n = 0 then 0.0
       else float_of_int s.Proto.messages /. float_of_int events_n);
    peak_queue = Shard.peak_global coord;
    events_executed = Shard.executed_total coord;
    event_fingerprint = Shard.fingerprint coord;
    sim_end_ms = sim_end;
    audit = audit_summary;
    join_rejects = s.Proto.join_rejects;
    promo_rejects = s.Proto.promo_rejects;
    tainted = Proto.tainted_count proto;
    sybils = List.length !sybils;
    grind_draws = !grind_draws;
    victim_capture = !victim_capture;
    victim_repair;
  }

let run_graph ~seed ~name ~graph ~gateways ?audit ?shards ?pool ?groups ?behaviours
    (p : params) =
  run_events ~seed ~name ~graph ~gateways ?audit ?shards ?pool ?groups ?behaviours p
    (churn_events ~seed p)

let run ~seed ~profile ?audit ?shards ?pool ?(events : Artifact.event list option)
    (p : params) =
  (* Same topology derivation as the experiment engine's intra runs, so a
     churn campaign on as3967 sees the same network fig5/6/7 measure. *)
  let rng = Prng.create (seed + Hashtbl.hash profile.Isp.profile_name) in
  let isp = Isp.generate rng profile in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let events = match events with Some e -> e | None -> churn_events ~seed p in
  (* Router → PoP is the diversity-group key of the quota defenses. *)
  run_events ~seed ~name:profile.Isp.profile_name ~graph:isp.Isp.graph ~gateways
    ?audit ?shards ?pool ~groups:isp.Isp.pop_of_router p events

(* Round-tripping params through repro artifacts.  Hex floats ([%h]) keep
   every scalar bit-identical across write/read, which the shrinker's
   determinism depends on.  Each key is listed once, in [fields], so the
   writer and the reader cannot disagree. *)

type 'a scalar = { kind : string; show : 'a -> string; parse : string -> 'a option }

let float_s = { kind = "float"; show = Printf.sprintf "%h"; parse = float_of_string_opt }
let int_s = { kind = "int"; show = string_of_int; parse = int_of_string_opt }
let bool_s = { kind = "bool"; show = string_of_bool; parse = bool_of_string_opt }

(* A lookup runs at least one walk branch. *)
let branches_s =
  {
    int_s with
    kind = "branch count (int >= 1)";
    parse = (fun v -> match int_of_string_opt v with Some x when x >= 1 -> Some x | _ -> None);
  }

let parse_scalar key sc v =
  match sc.parse v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "param %s: malformed %s %S" key sc.kind v)

type field = {
  key : string;
  write : params -> string;
  read : params -> string -> (params, string) result;
}

let field key sc get set =
  {
    key;
    write = (fun p -> sc.show (get p));
    read = (fun p v -> Result.map (set p) (parse_scalar key sc v));
  }

let proto key sc get set =
  field key sc (fun p -> get p.proto_cfg) (fun p x -> { p with proto_cfg = set p.proto_cfg x })

let fields =
  [
    field "horizon_ms" float_s (fun p -> p.horizon_ms) (fun p x -> { p with horizon_ms = x });
    field "arrival_rate_per_s" float_s (fun p -> p.arrival_rate_per_s)
      (fun p x -> { p with arrival_rate_per_s = x });
    field "mean_lifetime_s" float_s (fun p -> p.mean_lifetime_s)
      (fun p x -> { p with mean_lifetime_s = x });
    field "move_fraction" float_s (fun p -> p.move_fraction)
      (fun p x -> { p with move_fraction = x });
    field "crash_fraction" float_s (fun p -> p.crash_fraction)
      (fun p x -> { p with crash_fraction = x });
    field "lookup_rate_per_s" float_s (fun p -> p.lookup_rate_per_s)
      (fun p x -> { p with lookup_rate_per_s = x });
    field "lookup_warmup_ms" float_s (fun p -> p.lookup_warmup_ms)
      (fun p x -> { p with lookup_warmup_ms = x });
    field "drain_max_ms" float_s (fun p -> p.drain_max_ms) (fun p x -> { p with drain_max_ms = x });
    field "bootstrap_hosts" int_s (fun p -> p.bootstrap_hosts)
      (fun p x -> { p with bootstrap_hosts = x });
    proto "stabilize_period_ms" float_s (fun c -> c.Proto.stabilize_period_ms)
      (fun c x -> { c with Proto.stabilize_period_ms = x });
    proto "join_timeout_ms" float_s (fun c -> c.Proto.join_timeout_ms)
      (fun c x -> { c with Proto.join_timeout_ms = x });
    proto "lookup_timeout_ms" float_s (fun c -> c.Proto.lookup_timeout_ms)
      (fun c x -> { c with Proto.lookup_timeout_ms = x });
    proto "untwist" bool_s (fun c -> c.Proto.untwist) (fun c x -> { c with Proto.untwist = x });
    proto "lookup_alpha" branches_s (fun c -> c.Proto.lookup_alpha)
      (fun c x -> { c with Proto.lookup_alpha = x });
    proto "pcache_capacity" int_s (fun c -> c.Proto.pcache_capacity)
      (fun c x -> { c with Proto.pcache_capacity = x });
    proto "stabilize_auto" bool_s (fun c -> c.Proto.stabilize_auto)
      (fun c x -> { c with Proto.stabilize_auto = x });
    proto "verify_joins" bool_s (fun c -> c.Proto.verify_joins)
      (fun c x -> { c with Proto.verify_joins = x });
    proto "succ_quota" int_s (fun c -> c.Proto.succ_quota)
      (fun c x -> { c with Proto.succ_quota = x });
    proto "quota_enforce" bool_s (fun c -> c.Proto.quota_enforce)
      (fun c x -> { c with Proto.quota_enforce = x });
  ]

(* Keys that name protocol constants, as artifacts written while they were
   still [Proto.config] fields carry them: accepted at the constant's
   value, an error at any other. *)
let fixed key sc value =
  ( key,
    fun v ->
      Result.bind (parse_scalar key sc v) (fun x ->
          if x = value then Ok ()
          else
            Error
              (Printf.sprintf "param %s: fixed at %s in this version, got %S" key
                 (sc.show value) v)) )

let retired =
  [
    fixed "succ_list_len" int_s State.succ_list_len;
    fixed "rpc_timeout_ms" float_s State.rpc_timeout_ms;
    fixed "rpc_retries" int_s State.rpc_retries;
    fixed "rpc_backoff" float_s State.rpc_backoff;
    fixed "pred_timeout_ms" float_s State.pred_timeout_ms;
    fixed "join_retries" int_s State.join_retries;
    fixed "lookup_retries" int_s State.lookup_retries;
    fixed "stuck_wait_ms" float_s State.stuck_wait_ms;
    fixed "stuck_wait_limit" int_s State.stuck_wait_limit;
    fixed "pcache_refresh_ttl_ms" float_s State.pcache_refresh_ttl_ms;
    fixed "pcache_refresh_budget" int_s State.pcache_refresh_budget;
  ]

let params_to_strings p = List.map (fun f -> (f.key, f.write p)) fields

let params_of_strings kvs =
  List.fold_left
    (fun acc (k, v) ->
      Result.bind acc (fun p ->
          match List.find_opt (fun f -> f.key = k) fields with
          | Some f -> f.read p v
          | None -> (
            match List.assoc_opt k retired with
            | Some check -> Result.map (fun () -> p) (check v)
            | None -> Error (Printf.sprintf "unknown param %S" k))))
    (Ok default_params) kvs
