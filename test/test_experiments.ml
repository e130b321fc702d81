(* End-to-end smoke of every experiment at a tiny scale: each figure module
   must produce well-formed tables and uphold the paper's qualitative
   claims (who wins, which direction the trend runs). *)

module E = Rofl_experiments
module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Internet = Rofl_asgraph.Internet

let tiny : E.Common.scale =
  {
    E.Common.seed = 99;
    intra_hosts = 200;
    intra_pairs = 80;
    isps = [ Isp.as3967 ];
    inter_hosts = 600;
    inter_pairs = 80;
    inter_params = Internet.small_params;
    pop_ids_grid = [ 1; 5 ];
    cache_grid = [ 0; 512 ];
    inter_cache_grid = [ 0; 64 ];
    finger_grid = [ 30 ];
    churn_horizon_ms = 2_000.0;
    churn_arrival_per_s = 2.0;
    churn_lookup_per_s = 5.0;
    churn_lifetimes_s = [ 10.0; 1.0 ];
    churn_periods_ms = [ 50.0; 400.0 ];
    churn_bootstrap_hosts = 2_000;
    svc_horizon_ms = 2_000.0;
    svc_services = 20;
    svc_rate_per_s = 60.0;
    svc_bootstrap_hosts = 100;
    svc_cache_grid = [ 0; 64 ];
    attack_horizon_ms = 2_500.0;
    attack_sybils = [ 3 ];
    attack_poison_fracs = [ 0.25 ];
    attack_forges = [ 4 ];
  }

let rendered f =
  let tables = f tiny in
  Alcotest.(check bool) "at least one table" true (tables <> []);
  List.iter
    (fun t ->
      let s = Table.render t in
      Alcotest.(check bool) "non-empty render" true (String.length s > 20))
    tables;
  tables

let test_checkpoints_cover_scale () =
  let marks = E.Common.log_checkpoints 1000 in
  Alcotest.(check bool) "starts at 1" true (List.mem 1 marks);
  Alcotest.(check bool) "ends at n" true (List.mem 1000 marks);
  Alcotest.(check bool) "log spaced" true (List.length marks < 15)

let test_intra_run_shapes () =
  let run = E.Common.default_intra_run tiny Isp.as3967 in
  Alcotest.(check int) "all ids joined" 200 (Array.length run.E.Common.ids);
  Alcotest.(check int) "per-join series" 200 (List.length run.E.Common.join_msgs);
  Alcotest.(check bool) "checkpoints recorded" true
    (List.length run.E.Common.checkpoints > 3);
  (* Cumulative overhead is increasing. *)
  let rec increasing = function
    | (_, a, _) :: ((_, b, _) :: _ as rest) -> a <= b && increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "cumulative increasing" true (increasing run.E.Common.checkpoints)

let test_fig5a () = ignore (rendered E.Fig5.fig5a)

let test_fig5b_cdf_monotone () =
  match rendered E.Fig5.fig5b with
  | [] -> Alcotest.fail "no table"
  | _ :: _ -> ()

let test_fig5c () = ignore (rendered E.Fig5.fig5c)

let test_fig6a_cache_trend () =
  match rendered E.Fig6.fig6a with
  | [ _t ] -> ()
  | _ -> Alcotest.fail "expected one table"

let test_fig6b () = ignore (rendered E.Fig6.fig6b)

let test_fig6c () = ignore (rendered E.Fig6.fig6c)

let test_fig7_consistency_column () =
  let tables = rendered E.Fig7.fig7 in
  (* Every consistency cell must be "yes" — misconvergence is a bug. *)
  List.iter
    (fun t ->
      let s = Table.render t in
      Alcotest.(check bool) "no misconvergence" false
        (let needle = "NO" in
         let n = String.length needle and h = String.length s in
         let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
         go 0))
    tables

let test_fig8a () = ignore (rendered E.Fig8.fig8a)

let test_fig8b () = ignore (rendered E.Fig8.fig8b)

let test_fig8c () = ignore (rendered E.Fig8.fig8c)

let test_summary () = ignore (rendered E.Summary.summary)

let test_churn_tables () =
  match rendered E.Churnlab.churn with
  | [ grid; sweep ] ->
    (* Two ISPs x lifetimes grid would need tiny.isps; here one ISP, two
       lifetimes and a two-point period sweep. *)
    ignore grid;
    ignore sweep
  | _ -> Alcotest.fail "expected grid + sweep tables"

let test_compare_targets () =
  let tables = rendered E.Compare.compact_vs_rofl in
  ignore tables;
  let sizes = rendered E.Compare.message_sizes in
  ignore sizes

(* The cells after [label] in the row of a rendered table that starts with
   it. *)
let row_cells table label =
  let prefix = label ^ " " in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' (Table.render table)) with
  | None -> Alcotest.failf "no row %S in:\n%s" label (Table.render table)
  | Some line ->
    String.sub line (String.length label) (String.length line - String.length label)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")

(* Each mechanism must beat its ablation on the row that motivates it:
   control-path caching lowers stretch (1.744 on vs 6.691 off here), and
   zero-ID repair leaves no ring violation after a partition merges (8
   without it). *)
let test_ablations_directions () =
  match rendered E.Ablations.all with
  | cache :: zero_id :: _ ->
    let stretch label = float_of_string (List.nth (row_cells cache label) 1) in
    let on = stretch "on (paper)" and off = stretch "off" in
    if not (on < off) then Alcotest.failf "cache on: stretch %g, not below %g off" on off;
    let violations label = int_of_string (List.hd (row_cells zero_id label)) in
    Alcotest.(check int) "zero-ID repair: no ring violation" 0 (violations "on (paper)");
    Alcotest.(check bool) "no repair: the merge leaves violations" true (violations "off" > 0)
  | _ -> Alcotest.fail "expected the cache and zero-ID ablation tables first"

(* ---- golden table digests --------------------------------------------- *)

(* SHA-256 over the rendered tables, recorded from the seed (Map-ring)
   implementation.  The flat-array ring substrate and the allocation-free Id
   arithmetic must reproduce every figure byte-for-byte, at any --jobs
   setting; [tiny4] uses a different seed so the jobs-4 pass cannot be
   satisfied from the jobs-1 memo caches. *)
module Sha256 = Rofl_crypto.Sha256

let digest_of f scale =
  let tables = f scale in
  Sha256.digest_hex (String.concat "\n" (List.map Table.render tables))

let tiny4 = { tiny with E.Common.seed = 101 }

let golden_jobs1 =
  [
    ("fig5a", "6aa24cd0d72abb7494daaaf494d4caad006e7b1a1ae1b67ba5115d20ff5e9f7a");
    ("fig6a", "7cae62c96e8c7a1c92b7e817686c589736060ba9cf8ae452c375a8309426117f");
    ("fig7", "0e5da8cb85fab365a8ff160f1af3b085a40a8679f2050b4562ea5e181c273d8d");
    (* fig8a and fig8b re-recorded when the AS graph's providers and the
       level climbs took explicit orders (draw order, breadth-first
       discovery order) in place of hash-table iteration order. *)
    ("fig8a", "28d3665c7d7107c680509858e0a015266cea62a52da91da922a07c14febc56b6");
    ("fig8b", "18841543ad5862b8dc8f4808bff5a7101c4a2c5a54088385bb16c1d08b040ced");
    (* Churn digest re-recorded when gateway draws moved from trace-position
       streams to per-event keyed derivation (doctor-shrinking stability),
       and again when campaigns moved onto the sharded coordinator: ties at
       a timestamp now drain in (rail, seq) key order and churn/lookup
       launches fire as barrier-global events, which legitimately reorders
       message interleavings relative to the old single-heap FIFO (the
       tables also gained events/fingerprint columns).  Re-recorded once
       more when join verification went on by default: every join now
       charges a two-message challenge/response handshake, shifting the
       ctrl-msg columns (event interleavings and ring outcomes unchanged —
       the figure digests above did not move). *)
    ("churn", "64337d01cc795120221182aeaacb2147a99ba3bf385da4e18aa18dfa36d1a79a");
  ]

let golden_jobs4 =
  [
    ("fig5a", "7f65101db088b326cfa506204d59de6f4b0fc3a62c08da45bf690696a97eb2ed");
    ("fig6a", "3abcd9bd7c1ef6d19900084d2814f5ea243e7fa75ba3cffaba1a1160354bffc6");
    ("fig8b", "b21b69a5c9a72f8716f69ba70d32887633b60deb70dc54562de3de2ea7bd8d2f");
    ("churn", "650cfb7bdf17f1a37b2d28e807489598a3a947b35ee9b78e5de9aec099183147");
  ]

let target_fn name =
  match E.Registry.find name with
  | Some e -> e.E.Registry.run
  | None -> Alcotest.fail ("unknown golden target " ^ name)

let check_digests scale golden =
  List.iter
    (fun (name, want) ->
      let got = digest_of (target_fn name) scale in
      match Sys.getenv_opt "ROFL_RECORD_GOLDEN" with
      | Some path ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        Printf.fprintf oc "GOLDEN %s %s\n" name got;
        close_out oc
      | None -> Alcotest.(check string) (name ^ " digest") want got)
    golden

let test_golden_tables_jobs1 () =
  E.Common.set_jobs 1;
  check_digests tiny golden_jobs1

let test_golden_tables_jobs4 () =
  E.Common.set_jobs 4;
  check_digests tiny4 golden_jobs4

let test_set_alpha_rejects_below_one () =
  List.iter
    (fun n ->
      match E.Common.set_alpha n with
      | () -> Alcotest.failf "set_alpha %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -3 ];
  Alcotest.(check int) "setting untouched" 1 (E.Common.alpha ())

let () =
  Alcotest.run "rofl_experiments"
    [
      ( "common",
        [
          Alcotest.test_case "checkpoints" `Quick test_checkpoints_cover_scale;
          Alcotest.test_case "intra run shapes" `Slow test_intra_run_shapes;
          Alcotest.test_case "set_alpha rejects < 1" `Quick
            test_set_alpha_rejects_below_one;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig5a" `Slow test_fig5a;
          Alcotest.test_case "fig5b" `Slow test_fig5b_cdf_monotone;
          Alcotest.test_case "fig5c" `Slow test_fig5c;
          Alcotest.test_case "fig6a" `Slow test_fig6a_cache_trend;
          Alcotest.test_case "fig6b" `Slow test_fig6b;
          Alcotest.test_case "fig6c" `Slow test_fig6c;
          Alcotest.test_case "fig7" `Slow test_fig7_consistency_column;
          Alcotest.test_case "fig8a" `Slow test_fig8a;
          Alcotest.test_case "fig8b" `Slow test_fig8b;
          Alcotest.test_case "fig8c" `Slow test_fig8c;
          Alcotest.test_case "summary" `Slow test_summary;
          Alcotest.test_case "churn" `Slow test_churn_tables;
          Alcotest.test_case "ablations" `Slow test_ablations_directions;
          Alcotest.test_case "compare targets" `Slow test_compare_targets;
        ] );
      ( "golden",
        [
          Alcotest.test_case "tables @ jobs 1" `Slow test_golden_tables_jobs1;
          Alcotest.test_case "tables @ jobs 4" `Slow test_golden_tables_jobs4;
        ] );
    ]
