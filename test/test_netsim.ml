(* Metrics accounting, discrete-event engine and shard coordinator tests. *)

module Metrics = Rofl_netsim.Metrics
module Engine = Rofl_netsim.Engine
module Shard = Rofl_netsim.Shard

let test_metrics_incr () =
  let m = Metrics.create ~routers:4 in
  Metrics.incr m Metrics.Join 3;
  Metrics.incr m Metrics.Join 2;
  Metrics.incr m Metrics.Data 1;
  Alcotest.(check int) "join" 5 (Metrics.get m Metrics.Join);
  Alcotest.(check int) "data" 1 (Metrics.get m Metrics.Data);
  Alcotest.(check int) "missing" 0 (Metrics.get m Metrics.Repair);
  Alcotest.(check int) "total" 6 (Metrics.total m);
  (* Event counters never enter the message totals. *)
  Metrics.incr m Metrics.Failovers 4;
  Alcotest.(check int) "failovers" 4 (Metrics.get m Metrics.Failovers);
  Alcotest.(check int) "total excludes events" 6 (Metrics.total m);
  Alcotest.(check (list (pair string int))) "categories exclude events"
    [ ("data", 1); ("join", 5) ] (Metrics.categories m)

let test_metrics_charge_path () =
  let m = Metrics.create ~routers:5 in
  Metrics.charge_path m Metrics.Data [ 0; 1; 2; 3 ];
  Alcotest.(check int) "three link messages" 3 (Metrics.get m Metrics.Data);
  let load = Metrics.router_load m in
  Alcotest.(check (array int)) "all four routers loaded" [| 1; 1; 1; 1; 0 |] load;
  (* Degenerate paths charge nothing. *)
  Metrics.charge_path m Metrics.Data [ 2 ];
  Metrics.charge_path m Metrics.Data [];
  Alcotest.(check int) "unchanged" 3 (Metrics.get m Metrics.Data)

let test_metrics_charge_hop () =
  let m = Metrics.create ~routers:3 in
  Metrics.charge_hop m Metrics.Data 1;
  Metrics.charge_hop m Metrics.Data 1;
  Alcotest.(check int) "two messages" 2 (Metrics.get m Metrics.Data);
  Alcotest.(check (array int)) "load at router 1" [| 0; 2; 0 |] (Metrics.router_load m);
  (* Out-of-range routers count messages but no load. *)
  Metrics.charge_hop m Metrics.Data 99;
  Alcotest.(check int) "message counted" 3 (Metrics.get m Metrics.Data)

let test_metrics_categories_sorted () =
  let m = Metrics.create ~routers:1 in
  (* Declared before [Data], sorted after it. *)
  Metrics.incr m Metrics.Zero_id 1;
  Metrics.incr m Metrics.Data 2;
  Alcotest.(check (list (pair string int))) "sorted" [ ("data", 2); ("zero-id", 1) ]
    (Metrics.categories m)

let test_metrics_reset_and_merge () =
  let a = Metrics.create ~routers:2 and b = Metrics.create ~routers:2 in
  let all = Metrics.messages @ Metrics.events in
  List.iteri
    (fun i c ->
      Metrics.incr a c (i + 1);
      Metrics.incr b c (100 * (i + 1)))
    all;
  Metrics.charge_path a Metrics.Data [ 0; 1 ];
  Metrics.charge_path b Metrics.Data [ 1; 0 ];
  Metrics.merge_into ~dst:a b;
  List.iteri
    (fun i c ->
      let extra = if c = Metrics.Data then 2 else 0 in
      Alcotest.(check int) ("merged " ^ Metrics.name c) ((101 * (i + 1)) + extra)
        (Metrics.get a c))
    all;
  Alcotest.(check int) "every category listed" (List.length Metrics.messages)
    (List.length (Metrics.categories a));
  Alcotest.(check (array int)) "merged load" [| 2; 2 |] (Metrics.router_load a);
  Metrics.reset a;
  List.iter
    (fun c -> Alcotest.(check int) ("reset " ^ Metrics.name c) 0 (Metrics.get a c))
    all;
  Alcotest.(check int) "reset" 0 (Metrics.total a);
  Alcotest.(check (list (pair string int))) "no category after reset" []
    (Metrics.categories a);
  Alcotest.(check (array int)) "load reset" [| 0; 0 |] (Metrics.router_load a);
  (* A category charged only by [inject] is listed with count 0, survives a
     merge, and is gone after [reset]. *)
  let c = Metrics.create ~routers:2 in
  Metrics.inject c Metrics.Verify 1;
  Alcotest.(check (list (pair string int))) "inject-only listed" [ ("verify", 0) ]
    (Metrics.categories c);
  Alcotest.(check (array int)) "inject loads the origin" [| 0; 1 |] (Metrics.router_load c);
  Metrics.merge_into ~dst:a c;
  Alcotest.(check (list (pair string int))) "presence merged" [ ("verify", 0) ]
    (Metrics.categories a);
  Metrics.reset c;
  Alcotest.(check (list (pair string int))) "inject-only reset" [] (Metrics.categories c)

(* An engine whose payloads are labels, logged as they run. *)
let logging_engine () =
  let log = ref [] in
  (Engine.create ~exec:(fun _ l -> log := l :: !log), fun () -> List.rev !log)

let test_engine_ordering () =
  let e, log = logging_engine () in
  Engine.schedule_keyed e ~time_ms:5.0 ~rail:0 ~seq:0 ~arg:0 "b";
  Engine.schedule_keyed e ~time_ms:1.0 ~rail:0 ~seq:1 ~arg:0 "a";
  Engine.schedule_keyed e ~time_ms:9.0 ~rail:0 ~seq:2 ~arg:0 "c";
  Engine.run_before e infinity;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (log ());
  Alcotest.(check (float 1e-9)) "clock at last event" 9.0 (Engine.now e);
  Alcotest.(check int) "executed" 3 (Engine.executed_total e)

(* Each event schedules the next one from inside [exec], with its int. *)
let test_engine_cascading () =
  let fired = ref 0 in
  let engine = ref None in
  let exec n () =
    incr fired;
    match !engine with
    | Some e when n > 1 ->
      Engine.schedule_keyed e ~time_ms:(Engine.now e +. 1.0) ~rail:0 ~seq:!fired ~arg:(n - 1) ()
    | _ -> ()
  in
  let e = Engine.create ~exec in
  engine := Some e;
  Engine.schedule_keyed e ~time_ms:1.0 ~rail:0 ~seq:0 ~arg:5 ();
  Engine.run_before e infinity;
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced" 5.0 (Engine.now e)

(* [run_until] runs the horizon instant and moves the clock to it;
   [run_before] stops short of it and leaves the clock at the last event. *)
let test_engine_run_until () =
  let e, log = logging_engine () in
  List.iteri
    (fun seq t -> Engine.schedule_keyed e ~time_ms:t ~rail:0 ~seq ~arg:0 t)
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run_until e 2.5;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ] (log ());
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Engine.now e);
  Engine.run_before e 4.0;
  Alcotest.(check (list (float 1e-9))) "strictly before" [ 1.0; 2.0; 3.0 ] (log ());
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Engine.now e);
  let reg = [| infinity |] in
  Alcotest.(check bool) "next time" true (Engine.next_time_into e reg && reg.(0) = 4.0);
  Engine.run_until e 4.0;
  Alcotest.(check (list (float 1e-9))) "horizon instant runs" [ 1.0; 2.0; 3.0; 4.0 ] (log ());
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check bool) "no next time" false (Engine.next_time_into e reg)

let test_engine_rejects_past () =
  let e, _ = logging_engine () in
  Engine.schedule_keyed e ~time_ms:5.0 ~rail:0 ~seq:0 ~arg:0 ();
  Engine.run_until e 5.0;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_keyed: time in the past")
    (fun () -> Engine.schedule_keyed e ~time_ms:1.0 ~rail:0 ~seq:1 ~arg:0 ())

(* Keyed events at one timestamp drain in (rail, seq) order whatever order
   they were pushed in — the property the shard coordinator's byte-identity
   rests on — and the digest depends on the executed keys alone. *)
let test_engine_keyed_order_content_derived () =
  let run_order pushes =
    let e, log = logging_engine () in
    List.iter
      (fun (rail, seq) -> Engine.schedule_keyed e ~time_ms:1.0 ~rail ~seq ~arg:0 (rail, seq))
      pushes;
    Engine.run_until e 1.0;
    (log (), Engine.digest e)
  in
  let keys = [ (2, 0); (0, 0); (3, 0); (1, 0) ] in
  let expected = [ (0, 0); (1, 0); (2, 0); (3, 0) ] in
  let order_a, digest_a = run_order keys in
  let order_b, digest_b = run_order (List.rev keys) in
  Alcotest.(check (list (pair int int))) "key order, not push order" expected order_a;
  Alcotest.(check (list (pair int int))) "reversed pushes, same order" expected order_b;
  Alcotest.(check bool) "same executed multiset, same digest" true
    (digest_a = digest_b && digest_a <> 0);
  let _, digest_c = run_order [ (0, 0); (1, 0); (2, 0); (3, 1) ] in
  Alcotest.(check bool) "another key, another digest" true (digest_c <> digest_a);
  (* Within a rail, seq orders ties; pushes interleaved across rails (each
     rail's seqs monotone, as the contract requires) drain in key order. *)
  let interleaved = [ (1, 0); (0, 5); (1, 4); (0, 6) ] in
  let expected_i = [ (0, 5); (0, 6); (1, 0); (1, 4) ] in
  let order_i, _ = run_order interleaved in
  Alcotest.(check (list (pair int int))) "seq within rail" expected_i order_i

(* ---------- typed shard coordinator ---------- *)

(* A typed event: its own key, the router it runs at, the int it was sent
   with, and at most one child it sends when it runs. *)
type ev = {
  time : float;
  rail : int;
  seq : int;
  at : int;
  tag : int;
  child : (float * int * int) option; (* extra delay, destination router, tag *)
}

let routers = 6

(* Seeds are sent from global context; each child is sent from its
   parent's shard window, so with two or more shards most cross an outbox.
   Seeds sit on a 0.25 ms grid and children land 1 ms or more after their
   parent on a 0.125 ms grid: conservatism holds with equality for the
   children that land exactly one window after their parent, which a
   window opened at that parent delivers onto its own barrier, and many
   children share their instant with other events. *)
let run_keyed ~shards seeds =
  let shard_of r = r * shards / routers in
  let logs = Array.make shards [] in
  let rails = Array.make routers 0 in
  let draw rail =
    let seq = rails.(rail) in
    rails.(rail) <- seq + 1;
    seq
  in
  let coord = ref None in
  let send ~src ev =
    match !coord with
    | Some c ->
      Shard.send c ~src ~dst:(shard_of ev.at) ~time_ms:ev.time ~rail:ev.rail ~seq:ev.seq
        ~arg:ev.tag ev
    | None -> ()
  in
  let exec arg ev =
    let sx = shard_of ev.at in
    logs.(sx) <- (ev.time, ev.rail, ev.seq, arg = ev.tag) :: logs.(sx);
    match ev.child with
    | Some (delay, dst, tag) ->
      let time = ev.time +. 1.0 +. delay in
      send ~src:sx { time; rail = ev.at; seq = draw ev.at; at = dst; tag; child = None }
    | None -> ()
  in
  let c = Shard.create ~exec ~shards ~window_ms:1.0 () in
  coord := Some c;
  List.iter
    (fun (time, at, tag, child) ->
      send ~src:(-1) { time; rail = at; seq = draw at; at; tag; child })
    seeds;
  Shard.run_until c 1_000.0;
  (Array.map List.rev logs, Shard.fingerprint c, Shard.executed_total c)

let rec sorted = function
  | (t1, r1, s1, _) :: ((t2, r2, s2, _) :: _ as rest) ->
    compare (t1, r1, s1) (t2, r2, s2) < 0 && sorted rest
  | _ -> true

let prop_typed_shards_key_order =
  let seed =
    QCheck.Gen.(
      map4
        (fun q at tag child -> (0.25 *. float_of_int q, at, tag, child))
        (int_bound 40) (int_bound (routers - 1)) int
        (opt
           (triple
              (map (fun q -> 0.125 *. float_of_int q) (int_bound 16))
              (int_bound (routers - 1)) int)))
  in
  QCheck.Test.make ~name:"typed events: key order, int intact, one fingerprint at 1/2/3 shards"
    ~count:300
    (QCheck.make ~print:(fun l -> Printf.sprintf "%d seeds" (List.length l))
       QCheck.Gen.(list_size (int_bound 60) seed))
    (fun seeds ->
      let expected =
        List.length seeds + List.length (List.filter (fun (_, _, _, c) -> c <> None) seeds)
      in
      let logs1, fp1, n1 = run_keyed ~shards:1 seeds in
      let all1 = logs1.(0) in
      n1 = expected
      && List.length all1 = expected
      && List.for_all
           (fun shards ->
             let logs, fp, n = run_keyed ~shards seeds in
             let merged = List.sort compare (List.concat (Array.to_list logs)) in
             fp = fp1 && n = n1 && merged = all1 && Array.for_all sorted logs)
           [ 2; 3 ]
      && sorted all1
      && List.for_all (fun (_, _, _, ok) -> ok) all1)

(* Allocated out of line, so no frame of the test keeps the payload. *)
let[@inline never] send_tracked coord w =
  let b = Bytes.make 16 'p' in
  Weak.set w 0 (Some b);
  let payload () = ignore (Sys.opaque_identity b) in
  Shard.send coord ~src:(-1) ~dst:0 ~time_ms:0.0 ~rail:0 ~seq:0 ~arg:0 (fun () ->
      Shard.send coord ~src:0 ~dst:1 ~time_ms:1.0 ~rail:0 ~seq:1 ~arg:0 payload)

(* The outbox twin of the heap's pop-release test: once a cross-shard
   payload is flushed and run, the outbox columns must not keep it
   reachable, however long the coordinator lives. *)
let test_shard_outbox_releases_payloads () =
  let coord = Shard.create ~exec:(fun _ f -> f ()) ~shards:2 ~window_ms:1.0 () in
  let w = Weak.create 1 in
  send_tracked coord w;
  Shard.run_until coord 10.0;
  Alcotest.(check int) "both events ran" 2 (Shard.executed_total coord);
  Gc.full_major ();
  Alcotest.(check bool) "flushed payload unreachable" false (Weak.check w 0);
  Alcotest.(check int) "coordinator still alive" 0 (Shard.pending coord)

let () =
  Alcotest.run "rofl_netsim"
    [
      ( "metrics",
        [
          Alcotest.test_case "incr/get/total" `Quick test_metrics_incr;
          Alcotest.test_case "charge_path" `Quick test_metrics_charge_path;
          Alcotest.test_case "charge_hop" `Quick test_metrics_charge_hop;
          Alcotest.test_case "categories sorted" `Quick test_metrics_categories_sorted;
          Alcotest.test_case "reset and merge" `Quick test_metrics_reset_and_merge;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "keyed order content-derived" `Quick
            test_engine_keyed_order_content_derived;
        ] );
      ( "shard",
        [
          QCheck_alcotest.to_alcotest prop_typed_shards_key_order;
          Alcotest.test_case "outbox releases flushed payloads" `Quick
            test_shard_outbox_releases_payloads;
        ] );
    ]
