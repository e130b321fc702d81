(* rofl_sim — command-line driver over the experiment runners.

   Examples:
     rofl_sim fig6a                 reproduce one figure at full scale
     rofl_sim all --quick           everything, reduced scale
     rofl_sim summary --seed 42     §6.4 summary with another seed
     rofl_sim list                  show available experiments
     rofl_sim --trace               per-hop anatomy of one walk per layer *)

module Table = Rofl_util.Table
module E = Rofl_experiments
module Prng = Rofl_util.Prng
module Id = Rofl_idspace.Id
module Trace = Rofl_routing.Trace
module Gen = Rofl_topology.Gen
module Network = Rofl_intra.Network
module Vnode = Rofl_core.Vnode
module Internet = Rofl_asgraph.Internet
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route

let experiments : (string * string * (E.Common.scale -> Table.t list)) list =
  [
    ("fig5a", "intradomain cumulative join overhead vs IDs", E.Fig5.fig5a);
    ("fig5b", "intradomain CDF of per-host join overhead", E.Fig5.fig5b);
    ("fig5c", "intradomain CDF of join latency", E.Fig5.fig5c);
    ("fig6a", "intradomain stretch vs pointer-cache size", E.Fig6.fig6a);
    ("fig6b", "intradomain load balance vs OSPF", E.Fig6.fig6b);
    ("fig6c", "intradomain router memory vs IDs", E.Fig6.fig6c);
    ("fig7", "PoP partition repair overhead", E.Fig7.fig7);
    ("fig8a", "interdomain join overhead by strategy", E.Fig8.fig8a);
    ("fig8b", "interdomain stretch CDF vs fingers", E.Fig8.fig8b);
    ("fig8c", "interdomain stretch vs per-AS cache", E.Fig8.fig8c);
    ("churn", "steady-state SLOs under continuous churn", E.Churnlab.churn);
    ("alpha-frontier", "lookup latency vs control traffic across alpha x tuning",
     E.Churnlab.alpha_frontier);
    ("services", "service-discovery SLOs under flash crowds and republish storms",
     E.Serviceslab.services);
    ("megachurn", "million-host audited campaign on compact state", E.Churnlab.megachurn);
    ("attack", "eclipse/poison/forge attack grid vs diversity and verification defenses",
     E.Attacklab.attack);
    ("summary", "paper §6.4 summary vs measured", E.Summary.summary);
    ("ablations", "all design-choice ablations", E.Ablations.all);
    ("compare-compact", "compact routing vs ROFL", E.Compare.compact_vs_rofl);
    ("msg-sizes", "control-message wire sizes", E.Compare.message_sizes);
  ]

open Cmdliner

let quick_flag =
  let doc = "Run at the reduced quick scale (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed_opt =
  let doc = "Override the experiment seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc ~docv:"SEED")

let csv_opt =
  let doc = "Also write each table as CSV into $(docv)." in
  Arg.(value & opt (some dir) None & info [ "csv" ] ~doc ~docv:"DIR")

let jobs_opt =
  let doc =
    "Fan independent work items over $(docv) domains (default: the number of \
     recommended domains).  Results are byte-identical at any value; --jobs 1 \
     runs strictly sequentially."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let shards_opt =
  let doc =
    "Partition each campaign's event engine into $(docv) shards synchronised at \
     conservative time windows; with --jobs > 1 shard windows run on pool \
     domains.  Results are byte-identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~doc ~docv:"N")

let hosts_opt =
  let doc = "Override the megachurn bootstrap population (default: 10^6, or 20k with --quick)." in
  Arg.(value & opt (some int) None & info [ "hosts" ] ~doc ~docv:"N")

let alpha_opt =
  let doc =
    "Issue $(docv) parallel walk branches per lookup (first success wins, \
     losers are cooperatively cancelled).  Unlike --jobs/--shards this \
     changes results: redundancy trades control traffic for tail latency."
  in
  let at_least_one =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "must be at least 1, got %d" n))
      | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some at_least_one) None & info [ "alpha" ] ~doc ~docv:"N")

let scale_of quick seed hosts =
  let base = if quick then E.Common.quick else E.Common.full in
  let base = match seed with None -> base | Some s -> { base with E.Common.seed = s } in
  match hosts with
  | None -> base
  | Some h -> { base with E.Common.churn_bootstrap_hosts = max 0 h }

let run_named names quick seed csv jobs shards hosts alpha =
  (match jobs with Some j -> E.Common.set_jobs j | None -> ());
  (match shards with Some s -> E.Common.set_shards s | None -> ());
  (match alpha with Some a -> E.Common.set_alpha a | None -> ());
  let scale = scale_of quick seed hosts in
  let missing =
    List.filter (fun n -> not (List.exists (fun (m, _, _) -> m = n) experiments)) names
  in
  if missing <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\n" (String.concat ", " missing);
    1
  end
  else begin
    List.iter
      (fun name ->
        let _, desc, f = List.find (fun (m, _, _) -> m = name) experiments in
        Printf.printf "--- %s: %s ---\n" name desc;
        let tables = f scale in
        List.iter Table.print tables;
        match csv with
        | Some dir -> List.iter (fun t -> ignore (Table.save_csv t ~dir)) tables
        | None -> ())
      names;
    0
  end

(* Small demo networks (one per layer): route one packet each and print the
   uniform per-hop trace both walks now emit. *)
let run_trace seed =
  let seed = match seed with Some s -> s | None -> 7 in
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n:30 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  let ids = ref [] in
  let joined = ref 0 in
  while !joined < 40 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
    | Ok (id, _) ->
      incr joined;
      ids := id :: !ids
    | Error _ -> ()
  done;
  let target = List.nth !ids (List.length !ids / 2) in
  let r =
    Network.lookup ~trace:(Trace.builder ()) net ~from:0 ~target
      ~category:Rofl_netsim.Metrics.Data ~use_cache:true
  in
  Printf.printf "intradomain lookup from router 0 towards %s (%s, %d msgs):\n"
    (Id.to_short_string target)
    (match r.Network.status with
     | Network.Delivered _ -> "delivered"
     | Network.Predecessor _ -> "at predecessor"
     | Network.Stuck _ -> "stuck")
    r.Network.msgs;
  List.iter print_endline (Trace.to_lines r.Network.trace);
  let rng = Prng.create (seed + 1) in
  let inet = Internet.generate rng Internet.small_params in
  let cfg =
    {
      Net.default_config with
      Net.finger_budget = 30;
      Net.cache_capacity = 64;
      Net.peering_mode = Net.Bloom_filters;
    }
  in
  let inter = Net.create ~cfg ~rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let hosts = ref [] in
  for i = 1 to 200 do
    let s = stubs.(Prng.int rng (Array.length stubs)) in
    let strategy =
      match i mod 3 with
      | 0 -> Net.Single_homed
      | 1 -> Net.Multihomed
      | _ -> Net.Peering
    in
    let o = Net.join inter ~as_idx:s ~strategy in
    hosts := o.Net.host :: !hosts
  done;
  let hosts = Array.of_list !hosts in
  let src = hosts.(0) and dst = hosts.(Array.length hosts / 2) in
  let r = Route.route_from ~trace:(Trace.builder ()) inter ~src ~dst:dst.Net.id in
  Printf.printf "\ninterdomain route from AS%d towards %s (%s, %d AS hops):\n"
    src.Net.home_as (Id.to_short_string dst.Net.id)
    (if r.Route.delivered then "delivered" else "undelivered")
    r.Route.as_hops;
  List.iter print_endline (Trace.to_lines r.Route.trace);
  0

let trace_flag =
  let doc = "Route one packet per layer on small demo networks and print the per-hop trace." in
  Arg.(value & flag & info [ "trace" ] ~doc)

(* ---- ring doctor ------------------------------------------------------- *)

module Doctorlab = E.Doctorlab
module Artifact = Rofl_doctor.Artifact
module Checks = Rofl_doctor.Checks

let artifact_path dir fingerprint =
  let slug =
    String.map (fun c -> if c = ':' || c = '/' || c = ' ' then '-' else c) fingerprint
  in
  Filename.concat dir (Printf.sprintf "repro-%s.txt" slug)

let write_artifact dir artifact =
  let path = artifact_path dir artifact.Artifact.fingerprint in
  Artifact.write ~path artifact;
  path

let doctor_replay path =
  match Artifact.read ~path with
  | Error e ->
    Printf.eprintf "doctor: cannot read %s: %s\n" path e;
    1
  | Ok artifact ->
    (match Doctorlab.replay artifact with
     | Error e ->
       Printf.eprintf "doctor: cannot replay %s: %s\n" path e;
       1
     | Ok rp ->
       Printf.printf "replayed %d event(s) at seed %d on %s\n"
         (List.length artifact.Artifact.events)
         artifact.Artifact.seed artifact.Artifact.graph;
       (match rp.Doctorlab.rp_violation with
        | Some v ->
          Printf.printf "reproduced %s\n  %s\n" artifact.Artifact.fingerprint
            (Checks.to_string v);
          0
        | None ->
          Printf.printf "NOT reproduced: %s\n" artifact.Artifact.fingerprint;
          1))

let doctor_inject kind seed out =
  let kind_name =
    match kind with
    | Doctorlab.Stab_off_crash -> "stab-off"
    | Doctorlab.Loopy_splice -> "loopy"
    | Doctorlab.Eclipse_inject -> "eclipse"
    | Doctorlab.Poison_inject -> "poison"
  in
  let sc = Doctorlab.inject_scenario ~seed kind in
  Printf.printf "injecting %s fault at seed %d...\n%!" kind_name seed;
  match Doctorlab.hunt_and_shrink sc with
  | Doctorlab.Clean _ ->
    Printf.printf "NOT caught: campaign audited green despite the %s fault\n" kind_name;
    1
  | Doctorlab.Caught
      { fingerprint; first; original_events; shrunk_events; artifact; report = _ } ->
    Printf.printf "caught %s at %.0f ms; shrunk %d -> %d event(s)\n" fingerprint
      first.Checks.at_ms original_events shrunk_events;
    let path = write_artifact out artifact in
    Printf.printf "wrote %s\n%!" path;
    (* Close the loop: the freshly written file must replay to the same
       violation, or the artifact is useless as a repro. *)
    doctor_replay path

let doctor_audit quick seed jobs out =
  let scale = scale_of quick seed None in
  let grid = Doctorlab.audit_campaigns scale in
  List.iter Table.print grid.Doctorlab.tables;
  let static_table, static_violations = Doctorlab.static_audits scale in
  Table.print static_table;
  let shrunk =
    List.map
      (fun (sc, _) ->
        match Doctorlab.hunt_and_shrink sc with
        | Doctorlab.Clean _ -> None
        | Doctorlab.Caught { artifact; _ } -> Some (write_artifact out artifact))
      grid.Doctorlab.failing
    |> List.filter_map Fun.id
  in
  List.iter (fun p -> Printf.printf "wrote %s\n" p) shrunk;
  ignore jobs;
  if grid.Doctorlab.total_violations = 0 && static_violations = 0 then begin
    Printf.printf "doctor: all audits green\n";
    0
  end
  else begin
    Printf.eprintf "doctor: %d campaign + %d static violation(s)\n"
      grid.Doctorlab.total_violations static_violations;
    1
  end

let doctor_cmd =
  let doc =
    "Continuously audit ring invariants over a churn-campaign grid; shrink any \
     violation to a minimal runnable repro."
  in
  let replay_opt =
    let doc = "Re-execute a repro artifact and check its violation reproduces." in
    Arg.(value & opt (some file) None & info [ "replay" ] ~doc ~docv:"FILE")
  in
  let inject_opt =
    let doc =
      "Self-test: inject $(docv) (one of 'stab-off', 'loopy', 'eclipse', \
       'poison'), expect the audit to catch it, shrink, and replay the artifact."
    in
    let kind =
      Arg.enum
        [ ("stab-off", Doctorlab.Stab_off_crash);
          ("loopy", Doctorlab.Loopy_splice);
          ("eclipse", Doctorlab.Eclipse_inject);
          ("poison", Doctorlab.Poison_inject) ]
    in
    Arg.(value & opt (some kind) None & info [ "inject" ] ~doc ~docv:"FAULT")
  in
  let out_opt =
    let doc = "Directory for shrunk repro artifacts." in
    Arg.(value & opt dir "." & info [ "out" ] ~doc ~docv:"DIR")
  in
  let term =
    Term.(
      const (fun quick seed jobs shards replay inject out ->
          (match jobs with Some j -> E.Common.set_jobs j | None -> ());
          (match shards with Some s -> E.Common.set_shards s | None -> ());
          let seed_v = match seed with Some s -> s | None -> 7 in
          match (replay, inject) with
          | Some path, _ -> doctor_replay path
          | None, Some kind -> doctor_inject kind seed_v out
          | None, None -> doctor_audit quick seed jobs out)
      $ quick_flag $ seed_opt $ jobs_opt $ shards_opt $ replay_opt $ inject_opt
      $ out_opt)
  in
  Cmd.v (Cmd.info "doctor" ~doc) term

let exp_cmd (cmd_name, desc, _) =
  let term =
    Term.(
      const (fun quick seed csv jobs shards hosts alpha ->
          run_named [ cmd_name ] quick seed csv jobs shards hosts alpha)
      $ quick_flag $ seed_opt $ csv_opt $ jobs_opt $ shards_opt $ hosts_opt
      $ alpha_opt)
  in
  Cmd.v (Cmd.info cmd_name ~doc:desc) term

let all_cmd =
  let doc = "Run every experiment (figures, summary, ablations)." in
  let term =
    Term.(
      const (fun quick seed csv jobs shards hosts alpha ->
          run_named (List.map (fun (n, _, _) -> n) experiments) quick seed csv jobs
            shards hosts alpha)
      $ quick_flag $ seed_opt $ csv_opt $ jobs_opt $ shards_opt $ hosts_opt
      $ alpha_opt)
  in
  Cmd.v (Cmd.info "all" ~doc) term

let list_cmd =
  let doc = "List available experiments." in
  let term =
    Term.(
      const (fun () ->
          List.iter (fun (n, d, _) -> Printf.printf "%-10s %s\n" n d) experiments;
          0)
      $ const ())
  in
  Cmd.v (Cmd.info "list" ~doc) term

let () =
  Rofl_util.Logging.setup ();
  let doc = "ROFL (Routing on Flat Labels, SIGCOMM 2006) reproduction driver" in
  let info = Cmd.info "rofl_sim" ~version:"1.0.0" ~doc in
  let default =
    Term.(
      ret
        (const (fun tr seed ->
             if tr then `Ok (run_trace seed) else `Help (`Pager, None))
        $ trace_flag $ seed_opt))
  in
  let cmds = all_cmd :: list_cmd :: doctor_cmd :: List.map exp_cmd experiments in
  exit (Cmd.eval' (Cmd.group ~default info cmds))
