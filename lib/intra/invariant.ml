module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Linkstate = Rofl_linkstate.Linkstate
module Prng = Rofl_util.Prng

type report = {
  ok : bool;
  violations : string list;
  checked_members : int;
  samples_drawn : int;
  inconclusive : bool;
  stale_tail_entries : int;
}

(* The oracle successor within [vn]'s connected component. *)
let expected_successor (t : Network.t) (vn : Vnode.t) =
  let limit = Ring.cardinal t.Network.oracle in
  let rec go cur steps =
    if steps > limit then None
    else
      match Ring.successor cur t.Network.oracle with
      | Some (sid, _) when Id.equal sid vn.Vnode.id -> None
      | Some (sid, (sv : Vnode.t)) ->
        if
          sv.Vnode.alive
          && Linkstate.reachable t.Network.ls vn.Vnode.hosted_at sv.Vnode.hosted_at
        then Some (sid, sv)
        else go sid (steps + 1)
      | None -> None
  in
  go vn.Vnode.id 0

let check (t : Network.t) =
  let violations = ref [] in
  let checked = ref 0 in
  let stale_tails = ref 0 in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  Network.iter_members t (fun (vn : Vnode.t) ->
      let id = vn.Vnode.id in
      if vn.Vnode.alive then begin
        incr checked;
        match vn.Vnode.host_class with
        | Vnode.Stable | Vnode.Router_default ->
          (* (b) successor pointer agreement. *)
          (match (Vnode.first_succ vn, expected_successor t vn) with
           | Some (p : Pointer.t), Some (want, _) ->
             if not (Id.equal p.Pointer.dst want) then
               bad "%s: successor %s, oracle expects %s" (Id.to_short_string id)
                 (Id.to_short_string p.Pointer.dst) (Id.to_short_string want)
           | None, Some (want, _) ->
             bad "%s: missing successor, oracle expects %s" (Id.to_short_string id)
               (Id.to_short_string want)
           | Some _, None | None, None -> ());
          (* (c) group HEADS lead to live state; stale tails are lazily
             repaired and only counted. *)
          let dead (p : Pointer.t) =
            match Network.find_vnode t p.Pointer.dst with
            | Some (dv : Vnode.t) -> not dv.Vnode.alive
            | None -> true
          in
          let check_entry label i (p : Pointer.t) =
            if dead p then
              if i = 0 then
                bad "%s: %s head points to dead id %s" (Id.to_short_string id) label
                  (Id.to_short_string p.Pointer.dst)
              else incr stale_tails
          in
          Array.iteri (check_entry "successor") vn.Vnode.succ_ptrs;
          List.iteri (check_entry "predecessor") vn.Vnode.preds
        | Vnode.Ephemeral ->
          (* Attachment present at the ring predecessor. *)
          (match Vnode.first_pred vn with
           | Some (p : Pointer.t) ->
             let pr = t.Network.routers.(p.Pointer.dst_router) in
             (match Hashtbl.find_opt pr.Network.attachments id with
              | Some host when host = vn.Vnode.hosted_at -> ()
              | Some host ->
                bad "%s: attachment points to router %d, host is at %d"
                  (Id.to_short_string id) host vn.Vnode.hosted_at
              | None ->
                bad "%s: no attachment at predecessor router %d" (Id.to_short_string id)
                  p.Pointer.dst_router)
           | None -> bad "%s: ephemeral id with no predecessor" (Id.to_short_string id))
      end);
  {
    ok = !violations = [];
    violations = List.rev !violations;
    checked_members = !checked;
    samples_drawn = !checked;
    inconclusive = false;
    stale_tail_entries = !stale_tails;
  }

let check_routability (t : Network.t) ~samples =
  let ids =
    let rev = ref [] in
    Network.iter_members t (fun (vn : Vnode.t) ->
        if vn.Vnode.alive then rev := (vn.Vnode.id, vn) :: !rev);
    Array.of_list (List.rev !rev)
  in
  let violations = ref [] in
  let checked = ref 0 in
  let drawn = ref 0 in
  let live = Array.length ids in
  if live >= 2 then begin
    (* Each draw may land on an identical or cross-partition pair, which
       cannot be routed and does not count as a check — so keep drawing, up
       to a retry budget, until [samples] pairs were actually exercised (the
       seed burnt [samples] draws and silently reported whatever subset
       happened to be reachable, down to an "all green" empty report). *)
    let budget = 8 * samples in
    while !checked < samples && !drawn < budget do
      incr drawn;
      let sid, (sv : Vnode.t) = Prng.sample t.Network.rng ids in
      let did, (dv : Vnode.t) = Prng.sample t.Network.rng ids in
      if
        (not (Id.equal sid did))
        && Linkstate.reachable t.Network.ls sv.Vnode.hosted_at dv.Vnode.hosted_at
      then begin
        incr checked;
        let d = Forward.route_packet t ~from:sv.Vnode.hosted_at ~dest:did in
        match d.Forward.delivered_to with
        | Some (got : Vnode.t) when Id.equal got.Vnode.id did -> ()
        | Some got ->
          violations :=
            Printf.sprintf "packet for %s delivered to %s" (Id.to_short_string did)
              (Id.to_short_string got.Vnode.id)
            :: !violations
        | None ->
          violations :=
            Printf.sprintf "packet for %s from router %d undeliverable"
              (Id.to_short_string did) sv.Vnode.hosted_at
            :: !violations
      end
    done
  end;
  let inconclusive = live >= 2 && !checked = 0 in
  {
    ok = !violations = [] && not inconclusive;
    violations = List.rev !violations;
    checked_members = !checked;
    samples_drawn = !drawn;
    inconclusive;
    stale_tail_entries = 0;
  }
