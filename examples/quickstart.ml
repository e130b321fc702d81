(* Quickstart: bring up a small ISP running ROFL, join a few hosts with
   self-certifying identifiers, and route packets directly on the flat
   labels — no addresses anywhere.

     dune exec examples/quickstart.exe

   Exits 1 if a spoofed join is accepted or a ring invariant fails;
   dune runtest runs it. *)

module Prng = Rofl_util.Prng
module Id = Rofl_idspace.Id
module Identity = Rofl_crypto.Identity
module Isp = Rofl_topology.Isp
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Invariant = Rofl_intra.Invariant
module Vnode = Rofl_core.Vnode

let () =
  Rofl_util.Logging.setup ();
  let rng = Prng.create 1 in

  (* 1. A Rocketfuel-like ISP topology (AS3967-calibrated: 201 routers). *)
  let isp = Isp.generate rng Isp.as3967 in
  Printf.printf "ISP %s: %d routers, %d links, diameter %d hops\n"
    isp.Isp.name
    (Rofl_topology.Graph.n isp.Isp.graph)
    (Rofl_topology.Graph.m isp.Isp.graph)
    (Rofl_topology.Graph.diameter_hops isp.Isp.graph);

  (* 2. Boot ROFL: every router's default virtual node joins the ring. *)
  let net = Network.create ~rng isp.Isp.graph in
  Printf.printf "ROFL ring bootstrapped: %d members (router default vnodes)\n"
    (Network.ring_size net);

  (* 3. Hosts join with self-certifying identifiers: the flat label is the
     hash of the host's public key, and the gateway router verifies
     ownership before the ID becomes resident. *)
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let join () =
    let gw = Prng.sample rng gateways in
    match Network.join_fresh_host net ~gateway:gw ~cls:Vnode.Stable with
    | Ok (id, outcome) ->
      Printf.printf "  host %s joined at router %d (%d control packets, %.1f ms)\n"
        (Id.to_short_string id) gw outcome.Network.join_msgs
        outcome.Network.join_latency_ms;
      id
    | Error e -> failwith e
  in
  print_endline "Joining three hosts:";
  let alice = join () in
  let bob = join () in
  let carol = join () in

  (* 4. Route packets on the labels themselves. *)
  let send ~from_id ~to_id =
    match Network.find_vnode net from_id with
    | None -> ()
    | Some (vn : Vnode.t) ->
      let d = Forward.route_packet net ~from:vn.Vnode.hosted_at ~dest:to_id in
      (match d.Forward.delivered_to with
       | Some _ ->
         Printf.printf "  %s -> %s: delivered in %d hops (%.2f ms)\n"
           (Id.to_short_string from_id) (Id.to_short_string to_id) d.Forward.hops
           d.Forward.latency_ms
       | None -> Printf.printf "  %s -> %s: undeliverable!\n"
                   (Id.to_short_string from_id) (Id.to_short_string to_id))
  in
  print_endline "Routing on flat labels:";
  send ~from_id:alice ~to_id:bob;
  send ~from_id:bob ~to_id:carol;
  send ~from_id:carol ~to_id:alice;

  (* Caches warmed by the control traffic shorten later packets. *)
  (match Forward.stretch net ~src_gateway:(Prng.sample rng gateways) ~dst:alice with
   | Some s -> Printf.printf "Stretch of a fresh packet to %s: %.2f\n"
                 (Id.to_short_string alice) s
   | None -> ());

  (* 5. Spoofing is rejected: an identifier must hash the presented key. *)
  let mallory = Identity.generate rng in
  let claimed = alice (* not Mallory's hash! *) in
  (match
     Identity.authenticate rng ~claimed_id:claimed (Identity.public mallory)
       (fun c -> Identity.respond mallory c)
   with
   | Error reason -> Printf.printf "Spoofed join rejected: %s\n" reason
   | Ok () ->
     print_endline "BUG: spoofed join accepted";
     exit 1);

  (* 6. The ring invariant holds. *)
  let r = Invariant.check net in
  Printf.printf "Ring invariants: %s (%d members checked)\n"
    (if r.Invariant.ok then "OK" else "VIOLATED")
    r.Invariant.checked_members;
  if not r.Invariant.ok then exit 1
