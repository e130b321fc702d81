(* Workload model tests: host distributions and churn traces. *)

module Prng = Rofl_util.Prng
module Hostdist = Rofl_workload.Hostdist
module Churn = Rofl_workload.Churn
module Isp = Rofl_topology.Isp

let test_gateway_sampler () =
  let rng = Prng.create 5 in
  let isp = Isp.generate rng Isp.as3967 in
  let sample = Hostdist.gateway_sampler rng isp in
  let edges = Isp.edge_routers isp in
  for _ = 1 to 200 do
    let g = sample () in
    Alcotest.(check bool) "samples access routers" true (List.mem g edges)
  done

(* --- Churn trace properties (the generator now drives the churn lab). --- *)

let rec time_sorted = function
  | a :: (b :: _ as rest) -> Churn.event_time a <= Churn.event_time b && time_sorted rest
  | [ _ ] | [] -> true

let causality_holds trace =
  (* Every departure follows its own session's join, strictly later in the
     list; each session departs at most once. *)
  let born = Hashtbl.create 64 in
  let departed = Hashtbl.create 64 in
  List.for_all
    (fun ev ->
      match ev with
      | Churn.Join { seq; _ } ->
        let fresh = not (Hashtbl.mem born seq) in
        Hashtbl.replace born seq (Churn.event_time ev);
        fresh
      | Churn.Leave { seq; at_ms } | Churn.Move { seq; at_ms } | Churn.Crash { seq; at_ms } ->
        let ok =
          (match Hashtbl.find_opt born seq with
           | Some joined -> joined <= at_ms
           | None -> false)
          && not (Hashtbl.mem departed seq)
        in
        Hashtbl.replace departed seq ();
        ok)
    trace

(* QCheck sweep over the parameter space: structural invariants hold for any
   sane (rate, lifetime, move/crash split). *)
let prop_churn_structure =
  QCheck.Test.make ~name:"churn traces are sorted, causal and well-counted" ~count:60
    QCheck.(
      quad (int_range 1 1_000_000) (float_range 1.0 40.0) (float_range 0.05 5.0)
        (pair (float_range 0.0 0.5) (float_range 0.0 0.5)))
    (fun (seed, rate, lifetime, (movef, crashf)) ->
      let rng = Prng.create seed in
      let trace =
        Churn.generate rng ~horizon_ms:3_000.0 ~arrival_rate_per_s:rate
          ~mean_lifetime_s:lifetime ~move_fraction:movef ~crash_fraction:crashf ()
      in
      let joins, leaves, moves, crashes = Churn.count trace in
      time_sorted trace && causality_holds trace
      && joins + leaves + moves + crashes = List.length trace
      && leaves + moves + crashes <= joins
      && List.for_all
           (fun ev ->
             let t = Churn.event_time ev in
             t >= 0.0 && t < 3_000.0)
           trace
      (* The per-session view agrees with the raw event list. *)
      &&
      let ss = Churn.sessions trace in
      List.length ss = joins
      && List.for_all
           (fun (s : Churn.session) ->
             match s.Churn.departed_ms, s.Churn.departure with
             | None, None -> true
             | Some d, Some _ -> d >= s.Churn.joined_ms
             | _ -> false)
           ss
      && List.length (List.filter (fun s -> s.Churn.departure = Some `Move) ss) = moves
      && List.length (List.filter (fun s -> s.Churn.departure = Some `Crash) ss) = crashes)

let test_churn_arrival_rate () =
  (* Poisson arrivals: over a long horizon the empirical rate concentrates
     around the parameter.  25/s for 100 s -> 2500 expected joins, sd = 50,
     so +-10% is a 5-sigma band. *)
  let rng = Prng.create 7 in
  let horizon_ms = 100_000.0 in
  let rate = 25.0 in
  let trace =
    Churn.generate rng ~horizon_ms ~arrival_rate_per_s:rate ~mean_lifetime_s:1.0
      ~move_fraction:0.3 ()
  in
  let joins, _, _, _ = Churn.count trace in
  let empirical = float_of_int joins /. (horizon_ms /. 1000.0) in
  Alcotest.(check bool)
    (Printf.sprintf "arrival rate %.2f/s near %.1f/s" empirical rate)
    true
    (empirical > rate *. 0.9 && empirical < rate *. 1.1)

let test_churn_mean_lifetime () =
  (* Exponential lifetimes: measure over sessions whose departure landed
     inside the horizon.  Lifetime (0.5 s) is 200x shorter than the horizon
     so censoring bias is negligible; ~2000 samples put +-15% far outside
     sampling noise. *)
  let rng = Prng.create 8 in
  let mean_s = 0.5 in
  let trace =
    Churn.generate rng ~horizon_ms:100_000.0 ~arrival_rate_per_s:20.0
      ~mean_lifetime_s:mean_s ~move_fraction:0.2 ~crash_fraction:0.1 ()
  in
  let observed =
    List.filter_map
      (fun (s : Churn.session) ->
        match s.Churn.departed_ms with
        | Some d -> Some ((d -. s.Churn.joined_ms) /. 1000.0)
        | None -> None)
      (Churn.sessions trace)
  in
  let n = List.length observed in
  Alcotest.(check bool) "enough departures observed" true (n > 1_000);
  let mean = List.fold_left ( +. ) 0.0 observed /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean lifetime %.3fs near %.1fs" mean mean_s)
    true
    (mean > mean_s *. 0.85 && mean < mean_s *. 1.15)

let test_churn_departure_split () =
  (* The single uniform draw splits departures move/crash/leave by the
     requested fractions. *)
  let rng = Prng.create 9 in
  let trace =
    Churn.generate rng ~horizon_ms:60_000.0 ~arrival_rate_per_s:30.0 ~mean_lifetime_s:0.5
      ~move_fraction:0.5 ~crash_fraction:0.25 ()
  in
  let _, leaves, moves, crashes = Churn.count trace in
  let total = float_of_int (max 1 (leaves + moves + crashes)) in
  let movef = float_of_int moves /. total in
  let crashf = float_of_int crashes /. total in
  Alcotest.(check bool)
    (Printf.sprintf "move fraction %.2f near 0.5" movef)
    true
    (movef > 0.4 && movef < 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "crash fraction %.2f near 0.25" crashf)
    true
    (crashf > 0.17 && crashf < 0.33)

let test_churn_rejects_bad_params () =
  let rng = Prng.create 10 in
  let gen ?(rate = 1.0) ?(movef = 0.0) ?(crashf = 0.0) () =
    ignore
      (Churn.generate rng ~horizon_ms:1.0 ~arrival_rate_per_s:rate ~mean_lifetime_s:1.0
         ~move_fraction:movef ~crash_fraction:crashf ())
  in
  Alcotest.check_raises "rate" (Invalid_argument "Churn.generate: arrival rate must be positive")
    (fun () -> gen ~rate:0.0 ());
  Alcotest.check_raises "move fraction"
    (Invalid_argument "Churn.generate: move fraction out of [0,1]") (fun () ->
      gen ~movef:1.5 ());
  Alcotest.check_raises "crash fraction"
    (Invalid_argument "Churn.generate: crash fraction out of [0,1]") (fun () ->
      gen ~crashf:(-0.1) ());
  Alcotest.check_raises "sum" (Invalid_argument "Churn.generate: move + crash fractions exceed 1")
    (fun () -> gen ~movef:0.7 ~crashf:0.7 ())

let () =
  Alcotest.run "rofl_workload"
    [
      ( "hostdist",
        [
          Alcotest.test_case "gateway sampler" `Quick test_gateway_sampler;
        ] );
      ( "churn",
        [
          QCheck_alcotest.to_alcotest prop_churn_structure;
          Alcotest.test_case "arrival rate" `Quick test_churn_arrival_rate;
          Alcotest.test_case "mean lifetime" `Quick test_churn_mean_lifetime;
          Alcotest.test_case "departure split" `Quick test_churn_departure_split;
          Alcotest.test_case "bad params" `Quick test_churn_rejects_bad_params;
        ] );
    ]
