module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Sourceroute = Rofl_core.Sourceroute
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
module Identity = Rofl_crypto.Identity

let total (t : Network.t) = Metrics.total t.Network.metrics

(* A failure's doom test reads the four fields of a pointer,
   [doomed dst dst_router route start], so one test judges ring pointers
   and cache entries alike.  The sweeps below build one predicate per
   event, never one per member or entry, and allocate nothing for a member
   or entry that survives. *)

(* Drop every pointer that leads to or through dead equipment, charging
   tear-downs along the surviving prefix of each path, then repair.  Here
   and below, members are visited in {!Network.iter_members}' order, not
   the identifier table's hash order. *)
let teardown_and_repair (t : Network.t) ~doomed =
  let doomed_ptr _ (p : Pointer.t) =
    doomed p.Pointer.dst p.Pointer.dst_router p.Pointer.route (Pointer.start p)
  in
  Network.iter_members t
    (fun (vn : Vnode.t) ->
      if vn.Vnode.alive then begin
        let dropped = Vnode.drop_pointers_if vn doomed_ptr in
        if dropped > 0 then begin
          Metrics.incr t.Network.metrics Metrics.Teardown dropped;
          (match vn.Vnode.host_class with
           | Vnode.Stable | Vnode.Router_default ->
             if Vnode.succ_count vn = 0 then Network.repair_successor t vn;
             if vn.Vnode.preds = [] then Network.repair_predecessor t vn
           | Vnode.Ephemeral ->
             (* Re-attach below the current ring predecessor. *)
             let res =
               Network.lookup t ~from:vn.Vnode.hosted_at ~target:vn.Vnode.id
                 ~category:Metrics.Repair ~use_cache:true
             in
             (match res.Network.status with
              | Network.Predecessor pred ->
                (match
                   Network.make_pointer t Pointer.Predecessor
                     ~from_router:vn.Vnode.hosted_at ~dst:pred.Vnode.id
                     ~dst_router:pred.Vnode.hosted_at
                 with
                 | Some p -> Vnode.set_preds vn [ p ]
                 | None -> ());
                Hashtbl.replace
                  t.Network.routers.(pred.Vnode.hosted_at).Network.attachments
                  vn.Vnode.id vn.Vnode.hosted_at
              | Network.Delivered _ | Network.Stuck _ -> ()))
        end
      end)

let purge_caches (t : Network.t) ~doomed =
  let doomed_entry c s =
    doomed (Pointer_cache.dst c s) (Pointer_cache.dst_router c s) (Pointer_cache.route c s)
      (Pointer_cache.start c s)
  in
  Array.iter
    (fun (r : Network.router) -> ignore (Pointer_cache.drop_if r.Network.cache doomed_entry))
    t.Network.routers

let fail_host (t : Network.t) id =
  let before = total t in
  (* Mechanically identical to a graceful leave, except the gateway only
     notices through a session timeout; the teardown/repair traffic is the
     same (§3.2). *)
  match Network.leave_host t id with
  | Ok () -> Ok (total t - before)
  | Error e -> Error e

let charge_lsa (t : Network.t) category =
  Metrics.incr t.Network.metrics category (Linkstate.lsa_flood_cost t.Network.ls)

let fail_router (t : Network.t) idx ~pick_gateway =
  let before = total t in
  let r = t.Network.routers.(idx) in
  let resident_hosts =
    List.filter (fun (vn : Vnode.t) -> not (Vnode.is_default vn)) r.Network.residents
  in
  let orphan_attachments =
    Hashtbl.fold (fun id host acc -> (id, host) :: acc) r.Network.attachments []
    |> List.sort (fun (a, _) (b, _) -> Id.compare a b)
  in
  (* The link-state layer floods the failure. *)
  Linkstate.fail_router t.Network.ls idx;
  charge_lsa t Metrics.Flood;
  (* Everything resident here is gone. *)
  let kill (vn : Vnode.t) =
    Vnode.mark_dead vn;
    Network.Vnode_table.remove t.Network.vnodes vn.Vnode.id;
    Ring.remove vn.Vnode.id t.Network.oracle;
    Identity.release r.Network.auditor vn.Vnode.id
  in
  List.iter kill r.Network.residents;
  r.Network.residents <- [];
  Hashtbl.reset r.Network.attachments;
  (* Remote state referencing the dead router tears down and repairs. *)
  let doomed _ dst_router route start =
    dst_router = idx || Sourceroute.contains_router route start idx
  in
  purge_caches t ~doomed;
  teardown_and_repair t ~doomed;
  (* Hosts fail over to the next router on their agreed list. *)
  List.iter
    (fun (vn : Vnode.t) ->
      match pick_gateway vn with
      | Some gw when Linkstate.router_alive t.Network.ls gw ->
        (match
           Network.join_host t ~gateway:gw ~id:vn.Vnode.id ~cls:vn.Vnode.host_class
         with
         | Ok _ | Error _ -> ())
      | Some _ | None -> ())
    resident_hosts;
  (* Ephemeral hosts attached below predecessors hosted here re-attach. *)
  List.iter
    (fun (id, host_router) ->
      match Network.find_vnode t id with
      | Some (vn : Vnode.t) when vn.Vnode.alive ->
        let res =
          Network.lookup t ~from:host_router ~target:id ~category:Metrics.Repair
            ~use_cache:true
        in
        (match res.Network.status with
         | Network.Predecessor pred ->
           Hashtbl.replace
             t.Network.routers.(pred.Vnode.hosted_at).Network.attachments id host_router
         | Network.Delivered _ | Network.Stuck _ -> ())
      | Some _ | None -> ())
    orphan_attachments;
  ignore (Network.stabilize t ~category:Metrics.Repair);
  total t - before

let restore_router (t : Network.t) idx =
  let before = total t in
  Linkstate.restore_router t.Network.ls idx;
  charge_lsa t Metrics.Flood;
  let r = t.Network.routers.(idx) in
  let vn = Vnode.create (Network.router_id idx) Vnode.Router_default ~hosted_at:idx in
  r.Network.residents <- [ vn ];
  Network.Vnode_table.replace t.Network.vnodes vn.Vnode.id vn;
  Ring.add vn.Vnode.id vn t.Network.oracle;
  ignore (Network.rejoin_ring t vn ~category:Metrics.Repair);
  ignore (Network.stabilize t ~category:Metrics.Repair);
  total t - before

let fail_link (t : Network.t) u v =
  let before = total t in
  Linkstate.fail_link t.Network.ls u v;
  charge_lsa t Metrics.Flood;
  let crosses (p : Pointer.t) = Pointer.uses_link p u v in
  purge_caches t ~doomed:(fun _ _ route start -> Sourceroute.uses_link route start u v);
  (* The network map reroutes ring pointers transparently: refresh source
     routes that crossed the link; tear down only if now unreachable. *)
  Network.iter_members t
    (fun (vn : Vnode.t) ->
      if vn.Vnode.alive then begin
        let reroute (p : Pointer.t) =
          if crosses p then
            match
              Network.make_pointer t (Pointer.kind p) ~from_router:vn.Vnode.hosted_at
                ~dst:p.Pointer.dst ~dst_router:p.Pointer.dst_router
            with
            | Some fresh -> Some fresh
            | None -> None
          else Some p
        in
        Vnode.filter_map_pointers vn reroute;
        if Vnode.succ_count vn = 0 && not (Ring.is_empty t.Network.oracle) then
          Network.repair_successor t vn
      end);
  total t - before

let restore_link (t : Network.t) u v =
  let before = total t in
  Linkstate.restore_link t.Network.ls u v;
  charge_lsa t Metrics.Flood;
  total t - before

let cut_links (t : Network.t) routers =
  let inside = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace inside r ()) routers;
  let cut = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (v, _) ->
          if not (Hashtbl.mem inside v) && Linkstate.link_alive t.Network.ls r v then begin
            Linkstate.fail_link t.Network.ls r v;
            cut := (r, v) :: !cut
          end)
        (Graph.neighbors t.Network.graph r))
    routers;
  !cut

let disconnect_routers (t : Network.t) routers =
  let before = total t in
  let _cut = cut_links t routers in
  charge_lsa t Metrics.Flood;
  (* Zero-ID advertisements piggyback on the link-state flood in each
     component; charged once over the surviving links. *)
  charge_lsa t Metrics.Zero_id;
  let doomed dst _ route start =
    (not (Sourceroute.is_valid t.Network.ls route start)) || not (Network.is_live t dst)
  in
  purge_caches t ~doomed;
  teardown_and_repair t ~doomed;
  (* Per-component consistency: every member whose successor is now across
     the cut re-points within its component. *)
  Network.iter_members t
    (fun (vn : Vnode.t) ->
      if vn.Vnode.alive then begin
        match vn.Vnode.host_class with
        | Vnode.Stable | Vnode.Router_default ->
          let ok =
            Vnode.succ_count vn > 0
            && Linkstate.reachable t.Network.ls vn.Vnode.hosted_at
                 vn.Vnode.succ_ptrs.(0).Pointer.dst_router
          in
          if not ok then Network.repair_successor t vn;
          let pred_ok =
            match vn.Vnode.preds with
            | (p : Pointer.t) :: _ ->
              Linkstate.reachable t.Network.ls vn.Vnode.hosted_at p.Pointer.dst_router
            | [] -> false
          in
          if not pred_ok then Network.repair_predecessor t vn
        | Vnode.Ephemeral -> ()
      end);
  ignore (Network.stabilize t ~category:Metrics.Repair);
  total t - before

let reconnect_routers (t : Network.t) routers =
  let before = total t in
  let inside = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace inside r ()) routers;
  List.iter
    (fun r ->
      List.iter
        (fun (v, _) ->
          if not (Hashtbl.mem inside v) && not (Linkstate.link_alive t.Network.ls r v)
          then Linkstate.restore_link t.Network.ls r v)
        (Graph.neighbors t.Network.graph r))
    routers;
  charge_lsa t Metrics.Flood;
  (* The zero-ID advertisement reveals the other ring and triggers the
     merge (§3.2): members of the reconnected component re-splice. *)
  charge_lsa t Metrics.Zero_id;
  List.iter
    (fun r ->
      List.iter
        (fun (vn : Vnode.t) ->
          if vn.Vnode.alive then begin
            match vn.Vnode.host_class with
            | Vnode.Stable | Vnode.Router_default ->
              ignore (Network.rejoin_ring t vn ~category:Metrics.Repair)
            | Vnode.Ephemeral -> ()
          end)
        t.Network.routers.(r).Network.residents)
    routers;
  (* Main-side members whose true successor lives in the reconnected set got
     fixed by the splices above; verify and repair any stragglers. *)
  Network.iter_members t
    (fun (vn : Vnode.t) ->
      if vn.Vnode.alive && Vnode.succ_count vn = 0 then Network.repair_successor t vn);
  ignore (Network.stabilize t ~category:Metrics.Repair);
  total t - before

let mobile_rehome (t : Network.t) id ~new_gateway =
  let before = total t in
  match Network.find_vnode t id with
  | None -> Error "no such identifier"
  | Some (vn : Vnode.t) when Vnode.is_default vn -> Error "cannot move a router's ID"
  | Some (vn : Vnode.t) ->
    let cls = vn.Vnode.host_class in
    (match Network.leave_host t id with
     | Error e -> Error e
     | Ok () ->
       (match Network.join_host t ~gateway:new_gateway ~id ~cls with
        | Ok _ -> Ok (total t - before)
        | Error e -> Error e))
