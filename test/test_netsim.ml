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

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay_ms:5.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay_ms:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay_ms:9.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 9.0 (Engine.now e)

let test_engine_cascading () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule e ~delay_ms:1.0 (fun () ->
          incr fired;
          chain (n - 1))
  in
  chain 5;
  Engine.run e;
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced" 5.0 (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~delay_ms:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run_until e 2.5;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~delay_ms:5.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~time_ms:1.0 (fun () -> ()));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay_ms:(-1.0) (fun () -> ()))

let test_engine_ties_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay_ms:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay_ms:1.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "FIFO among ties" [ 1; 2 ] (List.rev !log)

(* Regression: ties must stay FIFO at scale, and events scheduled from a
   running callback at the *same* timestamp must run after every
   already-queued event with that timestamp (heap rebalancing must not
   reorder equal keys). *)
let test_engine_ties_fifo_stress () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay_ms:1.0 (fun () ->
        log := i :: !log;
        if i mod 2 = 0 then
          (* Re-entrant schedule at the current time: lands behind the whole
             first batch, still in emission order among themselves. *)
          Engine.schedule e ~delay_ms:0.0 (fun () -> log := (100 + i) :: !log))
  done;
  Engine.run e;
  let expected = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 100; 102; 104; 106; 108 ] in
  Alcotest.(check (list int)) "FIFO under re-entrant ties" expected (List.rev !log)

let test_engine_queue_depth_stats () =
  let e = Engine.create () in
  Alcotest.(check int) "fresh peak" 0 (Engine.peak_pending e);
  Alcotest.(check int) "fresh total" 0 (Engine.scheduled_total e);
  Engine.schedule e ~delay_ms:1.0 (fun () -> ());
  Engine.schedule e ~delay_ms:2.0 (fun () -> ());
  Engine.schedule e ~delay_ms:3.0 (fun () -> ());
  Alcotest.(check int) "peak tracks depth" 3 (Engine.peak_pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "peak is a high-water mark" 3 (Engine.peak_pending e);
  Alcotest.(check int) "total counts every schedule" 3 (Engine.scheduled_total e);
  (* A cascade holds the queue at depth 1 but keeps counting schedules. *)
  let rec chain n =
    if n > 0 then Engine.schedule e ~delay_ms:1.0 (fun () -> chain (n - 1))
  in
  chain 5;
  Engine.run e;
  Alcotest.(check int) "cascade never deepens the queue" 3 (Engine.peak_pending e);
  Alcotest.(check int) "cascade counted" 8 (Engine.scheduled_total e)

(* Pin the clear/reset split: [clear] truncates the future but must keep
   the statistical record (the doctor reads peak/scheduled after a phase is
   cancelled), while [reset] returns the engine to its freshly-created
   state so a reused engine cannot leak one phase's counters into the next
   report. *)
let test_engine_clear_keeps_stats_reset_zeroes () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay_ms:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay_ms:2.0 (fun () -> incr fired);
  Engine.run e;
  Engine.schedule e ~delay_ms:5.0 (fun () -> incr fired);
  Engine.schedule e ~delay_ms:6.0 (fun () -> incr fired);
  Engine.clear e;
  Alcotest.(check int) "clear drops the queue" 0 (Engine.pending e);
  Alcotest.(check int) "peak survives clear" 2 (Engine.peak_pending e);
  Alcotest.(check int) "scheduled survives clear" 4 (Engine.scheduled_total e);
  Alcotest.(check int) "executed survives clear" 2 (Engine.executed_total e);
  Alcotest.(check bool) "digest survives clear" true (Engine.digest e <> 0);
  Alcotest.(check (float 1e-9)) "clock survives clear" 2.0 (Engine.now e);
  Engine.reset e;
  Alcotest.(check int) "peak zeroed" 0 (Engine.peak_pending e);
  Alcotest.(check int) "scheduled zeroed" 0 (Engine.scheduled_total e);
  Alcotest.(check int) "executed zeroed" 0 (Engine.executed_total e);
  Alcotest.(check int) "digest zeroed" 0 (Engine.digest e);
  Alcotest.(check (float 1e-9)) "clock zeroed" 0.0 (Engine.now e);
  (* The reset engine behaves like a fresh one. *)
  Engine.schedule e ~delay_ms:1.0 (fun () -> incr fired);
  Engine.run e;
  Alcotest.(check int) "usable after reset" 3 !fired;
  Alcotest.(check int) "stats restart" 1 (Engine.scheduled_total e)

(* Keyed events at one timestamp drain in (rail, seq) order whatever order
   they were pushed in — the property the shard coordinator's byte-identity
   rests on — with plain (rail -1) entries ahead of every keyed one. *)
let test_engine_keyed_order_content_derived () =
  let run_order pushes =
    let e = Engine.create () in
    let log = ref [] in
    List.iter
      (fun (rail, seq) ->
        if rail < 0 then
          Engine.schedule e ~delay_ms:1.0 (fun () -> log := (rail, seq) :: !log)
        else
          Engine.schedule_keyed e ~time_ms:1.0 ~rail ~seq ~arg:0 (fun () ->
              log := (rail, seq) :: !log))
      pushes;
    Engine.run e;
    (List.rev !log, Engine.digest e)
  in
  let keys = [ (2, 0); (0, 0); (-1, 0); (3, 0); (1, 0) ] in
  let expected = [ (-1, 0); (0, 0); (1, 0); (2, 0); (3, 0) ] in
  let order_a, digest_a = run_order keys in
  let order_b, digest_b = run_order (List.rev keys) in
  Alcotest.(check (list (pair int int))) "key order, not push order" expected order_a;
  Alcotest.(check (list (pair int int))) "reversed pushes, same order" expected order_b;
  Alcotest.(check bool) "same executed multiset, same digest" true
    (digest_a = digest_b && digest_a <> 0);
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
  let c = Shard.create_typed ~exec ~shards ~window_ms:1.0 () in
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
  let coord = Shard.create ~shards:2 ~window_ms:1.0 () in
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
          Alcotest.test_case "FIFO ties" `Quick test_engine_ties_fifo;
          Alcotest.test_case "FIFO ties stress" `Quick test_engine_ties_fifo_stress;
          Alcotest.test_case "queue depth stats" `Quick test_engine_queue_depth_stats;
          Alcotest.test_case "clear keeps stats, reset zeroes" `Quick
            test_engine_clear_keeps_stats_reset_zeroes;
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
