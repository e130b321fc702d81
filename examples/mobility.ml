(* Mobility: the motivating workload of the identity/location split.  A
   laptop keeps one flat label while moving between PoPs; peers keep
   reaching it by the same identifier, with no resolution infrastructure
   and no address change.  A churn trace then stresses the ring.

     dune exec examples/mobility.exe

   Exits 1 if a ring or routability invariant fails after the churn;
   dune runtest runs it. *)

module Prng = Rofl_util.Prng
module Id = Rofl_idspace.Id
module Isp = Rofl_topology.Isp
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Vnode = Rofl_core.Vnode
module Churn = Rofl_workload.Churn

let () =
  Rofl_util.Logging.setup ();
  let rng = Prng.create 2 in
  let isp = Isp.generate rng Isp.as3257 in
  let net = Network.create ~rng isp.Isp.graph in
  let pop_gateways pop =
    match isp.Isp.pops.(pop).Isp.access with
    | [] -> isp.Isp.pops.(pop).Isp.core
    | axs -> axs
  in

  (* A stable correspondent and a mobile laptop (an ephemeral host). *)
  let server_gw = List.hd (pop_gateways 0) in
  let server =
    match Network.join_fresh_host net ~gateway:server_gw ~cls:Vnode.Stable with
    | Ok (id, _) -> id
    | Error e -> failwith e
  in
  let laptop_gw = List.hd (pop_gateways 1) in
  let laptop =
    match Network.join_fresh_host net ~gateway:laptop_gw ~cls:Vnode.Ephemeral with
    | Ok (id, o) ->
      Printf.printf "laptop %s attached at PoP 1 (ephemeral join: %d packets)\n"
        (Id.to_short_string id) o.Network.join_msgs;
      id
    | Error e -> failwith e
  in

  let ping label =
    (* The server addresses the laptop by its flat label, wherever it is. *)
    let server_router =
      match Network.find_vnode net server with
      | Some (vn : Rofl_core.Vnode.t) -> vn.Rofl_core.Vnode.hosted_at
      | None -> server_gw
    in
    let d = Forward.route_packet net ~from:server_router ~dest:laptop in
    match d.Forward.delivered_to with
    | Some _ ->
      Printf.printf "  [%s] server -> laptop: %d hops%s\n" label d.Forward.hops
        (if d.Forward.via_predecessor then " (relayed by ring predecessor)" else "")
    | None -> Printf.printf "  [%s] server -> laptop: LOST\n" label
  in
  ping "laptop at PoP 1";

  (* The laptop roams across PoPs.  Same label, new attachment. *)
  List.iter
    (fun pop ->
      let gw = List.hd (pop_gateways pop) in
      match Failure.mobile_rehome net laptop ~new_gateway:gw with
      | Ok msgs ->
        Printf.printf "laptop moved to PoP %d (%d control packets)\n" pop msgs;
        ping (Printf.sprintf "laptop at PoP %d" pop)
      | Error e -> Printf.printf "move failed: %s\n" e)
    [ 2; 3; 4 ];

  (* The server can also reach the laptop while other hosts churn. *)
  let trace =
    Churn.generate rng ~horizon_ms:5_000.0 ~arrival_rate_per_s:40.0
      ~mean_lifetime_s:2.0 ~move_fraction:0.2 ()
  in
  let joins, leaves, moves, _crashes = Churn.count trace in
  Printf.printf "churn trace: %d joins, %d leaves, %d moves over 5 simulated seconds\n"
    joins leaves moves;
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let session_ids = Hashtbl.create 64 in
  (* Replay the trace in order: [Churn.generate] sorts its events by time,
     equal times in generation order. *)
  List.iter
    (fun ev ->
      match ev with
      | Churn.Join { seq; _ } ->
        (match
           Network.join_fresh_host net ~gateway:(Prng.sample rng gateways)
             ~cls:Vnode.Stable
         with
         | Ok (id, _) -> Hashtbl.replace session_ids seq id
         | Error _ -> ())
      | Churn.Move { seq; _ } ->
        (match Hashtbl.find_opt session_ids seq with
         | Some id ->
           ignore
             (Failure.mobile_rehome net id ~new_gateway:(Prng.sample rng gateways))
         | None -> ())
      | Churn.Leave { seq; _ } | Churn.Crash { seq; _ } ->
        (match Hashtbl.find_opt session_ids seq with
         | Some id ->
           ignore (Failure.fail_host net id);
           Hashtbl.remove session_ids seq
         | None -> ()))
    trace;
  Printf.printf "simulated clock after replay: %.1f ms\n"
    (List.fold_left (fun t ev -> Float.max t (Churn.event_time ev)) 0.0 trace);
  ping "after churn";
  let r = Invariant.check net in
  Printf.printf "ring invariants after churn: %s (%d members)\n"
    (if r.Invariant.ok then "OK" else "VIOLATED")
    r.Invariant.checked_members;
  let rr = Invariant.check_routability net ~samples:100 in
  Printf.printf "routability after churn: %s (%d sampled pairs)\n"
    (if rr.Invariant.ok then "OK" else "VIOLATED")
    rr.Invariant.checked_members;
  if not (r.Invariant.ok && rr.Invariant.ok) then exit 1
