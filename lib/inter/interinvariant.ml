module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Asgraph = Rofl_asgraph.Asgraph

type report = {
  ok : bool;
  violations : string list;
  hosts_checked : int;
  rings_checked : int;
}

let check (t : Net.t) =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let hosts_checked = ref 0 in
  let g = Level.graph t.Net.ctx in
  (* Per-host checks, in identifier order; the count catches a host the Root ring lacks. *)
  let hosts = Net.live_hosts t in
  if Array.length hosts <> Hashtbl.length t.Net.hosts then
    bad "%d hosts in the host table, %d live in the Root ring" (Hashtbl.length t.Net.hosts)
      (Array.length hosts);
  Array.iter
    (fun (h : Net.host) ->
      let id = h.Net.id in
      incr hosts_checked;
      (* Membership of exactly the joined rings. *)
      List.iter
        (fun level ->
          if not (Ring.mem id (Net.ring t level)) then
            bad "%s missing from joined ring %s" (Id.to_short_string id)
              (Level.to_string level))
        h.Net.joined;
      (* Every joined level covers the home AS. *)
      List.iter
        (fun level ->
          if not (Level.member t.Net.ctx level h.Net.home_as) then
            bad "%s joined level %s not covering AS%d" (Id.to_short_string id)
              (Level.to_string level) h.Net.home_as)
        h.Net.joined;
      (* Residents ring agrees. *)
      if not (Ring.mem id t.Net.resident_rings.(h.Net.home_as)) then
        bad "%s not in residents of its home AS%d" (Id.to_short_string id) h.Net.home_as;
      (* Fingers point at live members of the right ring. *)
      List.iter
        (fun (level, fid) ->
          match Hashtbl.find_opt t.Net.hosts fid with
          | Some fh when fh.Net.alive_h ->
            if not (Ring.mem fid (Net.ring t level)) then
              bad "%s finger %s absent from ring %s" (Id.to_short_string id)
                (Id.to_short_string fid) (Level.to_string level)
          | Some _ | None ->
            (* Stale fingers are pruned lazily by routing; only complain if
               the finger's ring still claims it. *)
            if Ring.mem fid (Net.ring t level) then
              bad "ring %s contains dead finger target %s" (Level.to_string level)
                (Id.to_short_string fid))
        h.Net.fingers)
    hosts;
  (* Per-ring checks: every member is a live host that joined this level.
     With the per-host check above, a ring holds an identifier exactly when
     its host's [joined] names the level, which lets a walk answer ring
     membership from the destination's host record. *)
  let rings_checked = ref 0 in
  Array.iteri
    (fun key r ->
      if not (Ring.is_empty r) then incr rings_checked;
      Ring.iter
        (fun id (h : Net.host) ->
          if not h.Net.alive_h then bad "ring member %s is dead" (Id.to_short_string id);
          match Hashtbl.find_opt t.Net.hosts id with
          | Some th when th == h ->
            if not (List.exists (fun l -> Level.key t.Net.ctx l = key) h.Net.joined) then
              bad "ring member %s did not join that ring's level" (Id.to_short_string id)
          | Some _ | None ->
            bad "ring member %s is not the host the host table holds" (Id.to_short_string id))
        r)
    t.Net.rings;
  (* Bloom counts match the live identifiers in each cone (bloom-peering
     mode only; elsewhere they stay 0). *)
  let expected = Array.make (Array.length t.Net.bloom_counts) 0 in
  if t.Net.cfg.Net.peering_mode = Net.Bloom_filters then
    Hashtbl.iter
      (fun _ (h : Net.host) ->
        if h.Net.alive_h then
          List.iter
            (fun a -> expected.(a) <- expected.(a) + 1)
            (Asgraph.up_hierarchy g h.Net.home_as))
      t.Net.hosts;
  Array.iteri
    (fun a c ->
      if c <> expected.(a) then
        bad "AS%d bloom counts %d ids, %d live below it" a c expected.(a))
    t.Net.bloom_counts;
  {
    ok = !violations = [];
    violations = List.rev !violations;
    hosts_checked = !hosts_checked;
    rings_checked = !rings_checked;
  }

let check_routability (t : Net.t) ~samples =
  let hosts = Net.live_hosts t in
  let violations = ref [] in
  let checked = ref 0 in
  if Array.length hosts >= 2 then
    for _ = 1 to samples do
      let a = Prng.sample t.Net.rng hosts and b = Prng.sample t.Net.rng hosts in
      if not (Id.equal a.Net.id b.Net.id) then begin
        incr checked;
        let r = Route.route_from t ~src:a ~dst:b.Net.id in
        if not r.Route.delivered then
          violations :=
            Printf.sprintf "undeliverable %s -> %s" (Id.to_short_string a.Net.id)
              (Id.to_short_string b.Net.id)
            :: !violations
        else if not (Route.isolation_respected t r ~src:a ~dst:b.Net.id) then
          violations :=
            Printf.sprintf "isolation violated %s -> %s" (Id.to_short_string a.Net.id)
              (Id.to_short_string b.Net.id)
            :: !violations
      end
    done;
  {
    ok = !violations = [];
    violations = List.rev !violations;
    hosts_checked = !checked;
    rings_checked = 0;
  }
