module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Asgraph = Rofl_asgraph.Asgraph
module Metrics = Rofl_netsim.Metrics
module Pointer_cache = Rofl_core.Pointer_cache

type stub_failure = {
  ids_lost : int;
  repair_msgs : int;
  fraction_paths_affected : float;
  transit_fraction_affected : float;
}

(* Fractions of random host-pair routes whose AS path traverses [via] — the
   §6.3 "paths affected" metric, measured before the failure.  The second
   component excludes pairs that originate or terminate at [via] itself
   (whose traffic is necessarily lost with the AS). *)
let fractions_affected (t : Net.t) ~via ~samples =
  let hosts = Net.live_hosts t in
  if Array.length hosts < 2 || samples = 0 then (0.0, 0.0)
  else begin
    let affected = ref 0 and measured = ref 0 in
    let transit_affected = ref 0 and transit_measured = ref 0 in
    for _ = 1 to samples do
      let a = Rofl_util.Prng.sample t.Net.rng hosts in
      let b = Rofl_util.Prng.sample t.Net.rng hosts in
      if not (Id.equal a.Net.id b.Net.id) then begin
        incr measured;
        let r = Route.route_from t ~src:a ~dst:b.Net.id in
        let hit = r.Route.delivered && List.mem via r.Route.as_path in
        if hit then incr affected;
        if a.Net.home_as <> via && b.Net.home_as <> via then begin
          incr transit_measured;
          if hit then incr transit_affected
        end
      end
    done;
    let frac n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d in
    (frac !affected !measured, frac !transit_affected !transit_measured)
  end

(* First live member counter-clockwise of [id] in a ring. *)
let rec alive_predecessor rr id steps =
  if steps > Ring.cardinal rr then None
  else
    match Ring.predecessor id rr with
    | Some (pid, (ph : Net.host)) ->
      if ph.Net.alive_h then Some (pid, ph) else alive_predecessor rr pid (steps + 1)
    | None -> None

let fail_stub (t : Net.t) as_idx ~samples =
  let frac, transit_frac = fractions_affected t ~via:as_idx ~samples in
  let before = Metrics.total t.Net.metrics in
  let resident = List.map fst (Ring.to_list t.Net.resident_rings.(as_idx)) in
  Hashtbl.replace t.Net.failed_as as_idx ();
  (* Phase 1: the whole AS goes dark at once. *)
  let dead_hosts =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.Net.hosts id with
        | Some h ->
          h.Net.alive_h <- false;
          Some h
        | None -> None)
      resident
  in
  (* Phase 2: each surviving ring predecessor that lost successors runs one
     repair exchange (one message charged per distinct predecessor) — the
     paper's "~1 message per identifier hosted in the failed stub" (§6.3). *)
  let repaired = Hashtbl.create 64 in
  List.iter
    (fun (h : Net.host) ->
      List.iter
        (fun level ->
          let rr = Net.ring t level in
          match alive_predecessor rr h.Net.id 0 with
          | Some (pid, _) when not (Id.equal pid h.Net.id) ->
            if not (Hashtbl.mem repaired pid) then begin
              Hashtbl.add repaired pid ();
              Metrics.incr t.Net.metrics Metrics.Repair 1
            end
          | Some _ | None -> ())
        h.Net.joined)
    dead_hosts;
  (* Phase 3: state cleanup. *)
  List.iter
    (fun (h : Net.host) ->
      List.iter (fun level -> Ring.remove h.Net.id (Net.ring t level)) h.Net.joined;
      Hashtbl.remove t.Net.hosts h.Net.id;
      Net.count_in_blooms t as_idx (-1))
    dead_hosts;
  t.Net.resident_rings.(as_idx) <- Ring.create ();
  let homed_here c s = Pointer_cache.dst_router c s = as_idx in
  Array.iter (fun c -> ignore (Pointer_cache.drop_if c homed_here)) t.Net.caches;
  {
    ids_lost = List.length resident;
    repair_msgs = Metrics.total t.Net.metrics - before;
    fraction_paths_affected = frac;
    transit_fraction_affected = transit_frac;
  }

let restore_as (t : Net.t) as_idx = Hashtbl.remove t.Net.failed_as as_idx
