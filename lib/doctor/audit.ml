module Shard = Rofl_netsim.Shard
module Proto = Rofl_proto.Proto

type config = {
  every_ms : float;
  stale_grace_ms : float;
}

(* Violations kept verbatim; the rest are only counted. *)
let max_recorded = 64

let config_for (pc : Proto.config) =
  (* Worst-case repair latency for one dead successor: the failure surfaces
     at the next stabilisation round and burns the full probe budget
     (initial attempt + every backed-off retry) before failover promotes a
     backup.  Cascading crashes can chain a few of those, so the grace is
     eight chains deep — generous enough that clean campaigns never trip it,
     tight enough that a stopped stabilizer is caught within a second or two
     of simulated time at default periods. *)
  let rpc_budget =
    let rec go i acc =
      if i > Proto.rpc_retries then acc
      else go (i + 1) (acc +. (Proto.rpc_timeout_ms *. (Proto.rpc_backoff ** float_of_int i)))
    in
    go 0 0.0
  in
  {
    every_ms = pc.Proto.stabilize_period_ms;
    stale_grace_ms = 8.0 *. (pc.Proto.stabilize_period_ms +. rpc_budget);
  }

type summary = {
  checkpoints : int;
  violations : Checks.violation list;
  total_violations : int;
}

let ok s = s.total_violations = 0

let first s = match s.violations with [] -> None | v :: _ -> Some v

type t = {
  cfg : config;
  proto : Proto.t;
  extra : (float -> Checks.violation list) option;
  mutable next_cp : float;
  mutable checkpoints : int;
  mutable recorded : Checks.violation list; (* newest first *)
  mutable recorded_n : int;
  mutable total : int;
}

let create ?extra cfg proto =
  if cfg.every_ms <= 0.0 then invalid_arg "Audit.create: every_ms must be positive";
  {
    cfg;
    proto;
    extra;
    next_cp = cfg.every_ms;
    checkpoints = 0;
    recorded = [];
    recorded_n = 0;
    total = 0;
  }

let checkpoint t now =
  t.checkpoints <- t.checkpoints + 1;
  let vs = Checks.proto_checks ~stale_grace_ms:t.cfg.stale_grace_ms ~at_ms:now t.proto in
  let vs = match t.extra with None -> vs | Some f -> vs @ f now in
  List.iter
    (fun v ->
      t.total <- t.total + 1;
      if t.recorded_n < max_recorded then begin
        t.recorded <- v :: t.recorded;
        t.recorded_n <- t.recorded_n + 1
      end)
    vs

let on_event t now =
  if now >= t.next_cp then begin
    (* One sweep per crossing, however many checkpoint boundaries this event
       jumped: state only changes when events execute, so intermediate
       checkpoints would all have observed the same snapshot. *)
    checkpoint t now;
    while t.next_cp <= now do
      t.next_cp <- t.next_cp +. t.cfg.every_ms
    done
  end

(* The auditor rides the shard coordinator's monitor: it fires at the
   K-independent sync points (global-event times and run horizons), with
   every shard parked — so checkpoints may read cross-shard state and see
   the same snapshots at any shard count. *)
let install t = Shard.set_monitor (Proto.coordinator t.proto) (on_event t)

let detach t = Shard.clear_monitor (Proto.coordinator t.proto)

let summary t =
  {
    checkpoints = t.checkpoints;
    violations = List.rev t.recorded;
    total_violations = t.total;
  }
