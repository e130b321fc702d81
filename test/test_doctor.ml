(* The ring doctor end to end: clean campaigns audit green at every
   checkpoint, injected faults are caught mid-run, shrunk to a handful of
   events, and the written repro artifact replays deterministically to the
   same violation.  Also pins the artifact format round trip and the
   byte-identical-grid-at-any-jobs property with audits attached. *)

module E = Rofl_experiments
module Doctorlab = E.Doctorlab
module Campaign = Rofl_dynamics.Campaign
module Sc = Rofl_dynamics.Services_campaign
module Audit = Rofl_doctor.Audit
module Checks = Rofl_doctor.Checks
module Artifact = Rofl_doctor.Artifact
module Shrink = Rofl_doctor.Shrink
module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Prng = Rofl_util.Prng
module Churn = Rofl_workload.Churn

let mini =
  { Isp.profile_name = "doctor-mini"; routers = 24; hosts = 1_000; pop_count = 3 }

let clean_scenario seed =
  {
    Doctorlab.sc_seed = seed;
    sc_profile = mini;
    sc_params =
      {
        Campaign.default_params with
        Campaign.horizon_ms = 4_000.0;
        arrival_rate_per_s = 2.0;
        mean_lifetime_s = 5.0;
        lookup_rate_per_s = 5.0;
      };
    sc_faults = [];
  }

let summary_of (r : Campaign.report) =
  match r.Campaign.audit with
  | Some s -> s
  | None -> Alcotest.fail "expected an audit summary in the report"

let run_scenario ?audit sc =
  Campaign.run ~seed:sc.Doctorlab.sc_seed ?audit ~events:(Doctorlab.scenario_events sc)
    (Campaign.network ~seed:sc.Doctorlab.sc_seed sc.Doctorlab.sc_profile)
    sc.Doctorlab.sc_params

let audit_of (p : Campaign.params) = Audit.config_for p.Campaign.proto_cfg

let test_clean_campaign_green () =
  let sc = clean_scenario 3 in
  let s = summary_of (run_scenario ~audit:(audit_of sc.Doctorlab.sc_params) sc) in
  Alcotest.(check bool) "no violations" true (Audit.ok s);
  Alcotest.(check bool) "checkpoints actually ran" true (s.Audit.checkpoints > 20)

(* Attaching the auditor must not perturb the campaign: every metric of the
   report — tables included — is identical with and without it. *)
let test_audit_is_pure_observer () =
  let sc = clean_scenario 5 in
  let audited = run_scenario ~audit:(audit_of sc.Doctorlab.sc_params) sc in
  let plain = run_scenario sc in
  Alcotest.(check bool) "reports identical modulo the audit field" true
    ({ audited with Campaign.audit = None } = plain)

(* The same for a services campaign, whose auditor also runs the directory
   checks at every checkpoint. *)
let test_services_audit_is_pure_observer () =
  let p =
    {
      Sc.default_params with
      Sc.horizon_ms = 1_500.0;
      drain_ms = 300.0;
      bootstrap_hosts = 120;
      services = 15;
      rate_per_s = 50.0;
      flash_start_ms = 600.0;
      flash_len_ms = 300.0;
      storm_at_ms = 1_000.0;
    }
  in
  let net = Campaign.network ~seed:5 mini in
  let audited = Sc.run ~seed:5 ~audit:(Audit.config_for p.Sc.proto_cfg) net p in
  let plain = Sc.run ~seed:5 net p in
  Alcotest.(check bool) "resolutions ran" true (plain.Sc.resolves > 0);
  (match audited.Sc.audit with
   | Some s -> Alcotest.(check bool) "checkpoints ran" true (s.Audit.checkpoints > 20)
   | None -> Alcotest.fail "expected an audit summary in the report");
  Alcotest.(check bool) "reports identical modulo the audit field" true
    (compare { audited with Sc.audit = None } plain = 0)

let check_hunt kind ~expect_check seed =
  match Doctorlab.hunt_and_shrink (Doctorlab.inject_scenario ~seed kind) with
  | Doctorlab.Clean _ -> Alcotest.fail "injected fault was not caught"
  | Doctorlab.Caught
      { fingerprint; first; original_events; shrunk_events; artifact; report = _ } ->
    Alcotest.(check string) "expected check kind" expect_check first.Checks.check;
    Alcotest.(check bool) "fingerprint is check:subject" true
      (String.length fingerprint > String.length expect_check
       && String.sub fingerprint 0 (String.length expect_check) = expect_check);
    Alcotest.(check bool) "shrunk to at most 10 events" true (shrunk_events <= 10);
    Alcotest.(check bool) "shrinking dropped events" true
      (shrunk_events < original_events);
    (* Round trip through the text format, bit-identically. *)
    (match Artifact.of_lines (Artifact.to_lines artifact) with
     | Ok a -> Alcotest.(check bool) "artifact round trips" true (a = artifact)
     | Error e -> Alcotest.fail ("artifact did not parse back: " ^ e));
    (* And through a file on disk, then replay to the same violation. *)
    let path = Filename.temp_file "rofl-doctor-test" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Artifact.write ~path artifact;
        match Artifact.read ~path with
        | Error e -> Alcotest.fail ("artifact file did not read back: " ^ e)
        | Ok a ->
          Alcotest.(check bool) "file round trips" true (a = artifact);
          (match Doctorlab.replay a with
           | Error e -> Alcotest.fail ("replay failed: " ^ e)
           | Ok rp ->
             Alcotest.(check bool) "violation reproduced on replay" true
               rp.Doctorlab.rp_reproduced))

let test_stab_off_caught_and_shrunk () =
  check_hunt Doctorlab.Stab_off_crash ~expect_check:"loopy-evidence" 7

let test_loopy_splice_caught_and_shrunk () =
  check_hunt Doctorlab.Loopy_splice ~expect_check:"loopy-evidence" 11

let test_eclipse_caught_and_shrunk () =
  check_hunt Doctorlab.Eclipse_inject ~expect_check:"eclipse-saturation" 7

let test_poison_caught_and_shrunk () =
  check_hunt Doctorlab.Poison_inject ~expect_check:"poison-residency" 7

let test_replay_is_deterministic () =
  match Doctorlab.hunt_and_shrink (Doctorlab.inject_scenario ~seed:11 Doctorlab.Loopy_splice) with
  | Doctorlab.Clean _ -> Alcotest.fail "injected fault was not caught"
  | Doctorlab.Caught { artifact; _ } ->
    (match (Doctorlab.replay artifact, Doctorlab.replay artifact) with
     | Ok a, Ok b ->
       Alcotest.(check bool) "two replays, identical reports" true
         (a.Doctorlab.rp_report = b.Doctorlab.rp_report)
     | _ -> Alcotest.fail "replay failed")

let test_artifact_rejects_garbage () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "missing header" true (is_err (Artifact.of_lines [ "seed 1" ]));
  Alcotest.(check bool) "missing seed" true
    (is_err
       (Artifact.of_lines
          [ "rofl-doctor-repro v1"; "graph isp x 4 4 1"; "fingerprint a:b" ]));
  Alcotest.(check bool) "bad event kind" true
    (is_err
       (Artifact.of_lines
          [
            "rofl-doctor-repro v1";
            "seed 1";
            "graph isp x 4 4 1";
            "fingerprint a:b";
            "event teleport 0x1p+1 0";
          ]));
  Alcotest.(check bool) "unknown graph spec fails replay" true
    (is_err
       (Doctorlab.replay
          {
            Artifact.seed = 1;
            graph = "torus 5 5";
            params = [];
            fingerprint = "a:b";
            events = [];
          }))

(* The shrinker itself, against a cheap synthetic oracle: minimal result,
   1-minimality, and oracle purity are all visible without running
   campaigns. *)
let test_shrink_minimizes () =
  let reproduces evs = List.mem 3 evs && List.mem 7 evs in
  let out = Shrink.minimize ~reproduces [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "exactly the two needed events" [ 3; 7 ] out;
  let out2 = Shrink.minimize ~reproduces:(fun _ -> true) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "always-reproducing shrinks to empty" [] out2;
  let out3 = Shrink.minimize ~reproduces:(fun evs -> List.length evs >= 3) [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "cardinality oracle keeps three" 3 (List.length out3)

(* Audited grids stay byte-identical at any jobs setting: the auditor rides
   the engine monitor, outside the event queue. *)
let grid_scale =
  {
    E.Common.quick with
    E.Common.seed = 404;
    isps = [ Isp.as3967 ];
    churn_horizon_ms = 2_000.0;
    churn_arrival_per_s = 2.0;
    churn_lookup_per_s = 5.0;
    churn_lifetimes_s = [ 10.0; 2.0 ];
  }

let render_grid () =
  let g = Doctorlab.audit_campaigns grid_scale in
  ( String.concat "\n" (List.map Table.render g.Doctorlab.tables),
    g.Doctorlab.total_violations )

let test_grid_jobs_determinism () =
  E.Common.set_jobs 1;
  let t1, v1 = render_grid () in
  E.Common.set_jobs 4;
  let t4, v4 = render_grid () in
  E.Common.set_jobs 1;
  Alcotest.(check string) "tables byte-identical at jobs 1 and 4" t1 t4;
  Alcotest.(check int) "clean grid at jobs 1" 0 v1;
  Alcotest.(check int) "clean grid at jobs 4" 0 v4

let test_graph_spec_round_trip () =
  match Doctorlab.profile_of_spec (Doctorlab.graph_spec mini) with
  | Ok p -> Alcotest.(check bool) "profile round trips" true (p = mini)
  | Error e -> Alcotest.fail e

(* An artifact naming fewer than one lookup branch is malformed, not a
   request for α=1. *)
let test_params_reject_alpha_below_one () =
  List.iter
    (fun v ->
      match Campaign.params_of_strings [ ("lookup_alpha", v) ] with
      | Ok _ -> Alcotest.failf "lookup_alpha=%s accepted" v
      | Error _ -> ())
    [ "0"; "-3" ];
  match Campaign.params_of_strings [ ("lookup_alpha", "2") ] with
  | Ok p -> Alcotest.(check int) "lookup_alpha=2 kept" 2 p.Campaign.proto_cfg.lookup_alpha
  | Error e -> Alcotest.fail e

(* ---- the params codec of repro artifacts --------------------------------- *)

(* Written by [rofl_sim doctor --inject stab-off --seed 7] while the protocol
   constants below were still [Proto.config] fields, so it names each of
   them. *)
let fixture = "repro_stab_off_seed7.txt"

let retired_keys =
  [ "succ_list_len"; "rpc_timeout_ms"; "rpc_retries"; "rpc_backoff"; "pred_timeout_ms";
    "join_retries"; "lookup_retries"; "stuck_wait_ms"; "stuck_wait_limit";
    "pcache_refresh_ttl_ms"; "pcache_refresh_budget" ]

let fixture_params () =
  match Artifact.read ~path:fixture with
  | Ok a -> a.Artifact.params
  | Error e -> Alcotest.fail e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_fixture_params_accepted () =
  let kvs = fixture_params () in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " named by the fixture") true (List.mem_assoc k kvs))
    retired_keys;
  match Campaign.params_of_strings kvs with
  | Error e -> Alcotest.fail e
  | Ok p ->
    (* every other key is still written, in the same order and spelling *)
    Alcotest.(check (list (pair string string)))
      "remaining keys written back unchanged"
      (List.filter (fun (k, _) -> not (List.mem k retired_keys)) kvs)
      (Campaign.params_to_strings p)

let test_retired_keys_fixed () =
  let kvs = fixture_params () in
  List.iter
    (fun (k, v) ->
      let kvs = List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs in
      match Campaign.params_of_strings kvs with
      | Ok _ -> Alcotest.failf "%s=%s accepted" k v
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s=%s: error %S names the key as fixed" k v e)
          true
          (contains e k && contains e "fixed"))
    [ ("succ_list_len", "5"); ("rpc_timeout_ms", "0x1.9p+5"); ("rpc_retries", "3");
      ("rpc_backoff", "0x1.8p+0"); ("pred_timeout_ms", "0x1p+9"); ("join_retries", "0");
      ("lookup_retries", "4"); ("stuck_wait_ms", "0x1p+0"); ("stuck_wait_limit", "1");
      ("pcache_refresh_ttl_ms", "0x1p+8"); ("pcache_refresh_budget", "8") ];
  match Campaign.params_of_strings [ ("rpc_retries", "two") ] with
  | Ok _ -> Alcotest.fail "malformed retired value accepted"
  | Error _ -> ()

(* Any float [%h] can carry: full 53-bit mantissas at any exponent,
   subnormals, signed zeros and infinities (NaN has no single value to
   round-trip). *)
let float_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map Int64.float_of_bits ui64 >|= fun x -> if Float.is_nan x then 1.0 else x);
      (2, map (fun m -> Int64.float_of_bits (Int64.logand m 0x800F_FFFF_FFFF_FFFFL)) ui64);
      ( 1,
        oneofl
          [ 0.0; -0.0; 5e-324; Float.min_float; Float.max_float; infinity; neg_infinity;
            Float.succ 1.0 ] );
    ]

let params_gen =
  let open QCheck.Gen in
  let* horizon_ms = float_gen and* arrival_rate_per_s = float_gen
  and* mean_lifetime_s = float_gen and* move_fraction = float_gen
  and* crash_fraction = float_gen and* lookup_rate_per_s = float_gen
  and* lookup_warmup_ms = float_gen and* drain_max_ms = float_gen
  and* bootstrap_hosts = int and* stabilize_period_ms = float_gen
  and* join_timeout_ms = float_gen and* lookup_timeout_ms = float_gen
  and* untwist = bool and* lookup_alpha = int_range 1 max_int
  and* pcache_capacity = int and* stabilize_auto = bool and* verify_joins = bool
  and* succ_quota = int and* quota_enforce = bool in
  return
    {
      Campaign.horizon_ms; arrival_rate_per_s; mean_lifetime_s; move_fraction;
      crash_fraction; lookup_rate_per_s; lookup_warmup_ms; drain_max_ms; bootstrap_hosts;
      proto_cfg =
        {
          Rofl_proto.Proto.stabilize_period_ms; join_timeout_ms; lookup_timeout_ms; untwist;
          lookup_alpha; pcache_capacity; stabilize_auto; verify_joins; succ_quota;
          quota_enforce;
        };
    }

let qcheck_params_round_trip =
  QCheck.Test.make ~count:500 ~name:"params_of_strings (params_to_strings p) = Ok p"
    (QCheck.make
       ~print:(fun p ->
         String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (Campaign.params_to_strings p)))
       params_gen)
    (fun p ->
      let kvs = Campaign.params_to_strings p in
      match Campaign.params_of_strings kvs with
      | Error e -> QCheck.Test.fail_reportf "rejected: %s" e
      (* [=] equates 0.0 and -0.0, so also compare what the copy writes *)
      | Ok p' -> p' = p && Campaign.params_to_strings p' = kvs)

(* [Checks.ring_owner] against a list scan: the greatest member <= id in
   unsigned order, else (the id precedes every member) the largest one. *)
let model_owner members id =
  match List.filter (fun m -> Rofl_idspace.Id.compare m id <= 0) members with
  | [] -> List.nth_opt (List.rev members) 0
  | below -> List.nth_opt (List.rev below) 0

let qcheck_ring_owner_model =
  let module Id = Rofl_idspace.Id in
  let gen =
    QCheck.Gen.(
      map3
        (fun seed n pick ->
          let rng = Prng.create seed in
          let members = List.sort_uniq Id.compare (List.init n (fun _ -> Id.random rng)) in
          (* An exact member, one below the smallest member (the wrap), or
             a fresh identifier; an empty membership has no owner. *)
          let id =
            match (members, pick) with
            | _ :: _, 0 -> List.nth members (Prng.int rng (List.length members))
            | smallest :: _, 1 -> Id.pred_id smallest
            | _ -> Id.random rng
          in
          (members, id))
        int (int_bound 12) (int_bound 2))
  in
  QCheck.Test.make ~count:1000 ~name:"ring_owner = list-scan model"
    (QCheck.make
       ~print:(fun (ms, id) ->
         Printf.sprintf "%s in [%s]" (Id.to_short_string id)
           (String.concat "; " (List.map Id.to_short_string ms)))
       gen)
    (fun (members, id) ->
      Option.equal Id.equal (Checks.ring_owner (Array.of_list members) id)
        (model_owner members id))

let () =
  Alcotest.run "rofl_doctor"
    [
      ( "audit",
        [
          Alcotest.test_case "clean campaign green" `Quick test_clean_campaign_green;
          Alcotest.test_case "pure observer" `Quick test_audit_is_pure_observer;
          Alcotest.test_case "services audit is a pure observer" `Quick
            test_services_audit_is_pure_observer;
          Alcotest.test_case "grid jobs determinism" `Slow test_grid_jobs_determinism;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "stab-off caught+shrunk" `Slow test_stab_off_caught_and_shrunk;
          Alcotest.test_case "loopy caught+shrunk" `Slow test_loopy_splice_caught_and_shrunk;
          Alcotest.test_case "eclipse caught+shrunk" `Slow test_eclipse_caught_and_shrunk;
          Alcotest.test_case "poison caught+shrunk" `Slow test_poison_caught_and_shrunk;
          Alcotest.test_case "replay deterministic" `Slow test_replay_is_deterministic;
        ] );
      ( "format",
        [
          Alcotest.test_case "garbage rejected" `Quick test_artifact_rejects_garbage;
          Alcotest.test_case "graph spec round trip" `Quick test_graph_spec_round_trip;
          Alcotest.test_case "lookup_alpha < 1 rejected" `Quick
            test_params_reject_alpha_below_one;
          Alcotest.test_case "older artifact's fixed keys accepted" `Quick
            test_fixture_params_accepted;
          Alcotest.test_case "fixed keys rejected off their value" `Quick
            test_retired_keys_fixed;
          QCheck_alcotest.to_alcotest qcheck_params_round_trip;
        ] );
      ( "shrink", [ Alcotest.test_case "synthetic oracle" `Quick test_shrink_minimizes ] );
      ("oracle", [ QCheck_alcotest.to_alcotest qcheck_ring_owner_model ]);
    ]
