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

(* Entry [i] of a group: a dead head is [report]ed, a dead tail entry only
   counted.  Returns [stale] plus that count. *)
let judge_entry t (vn : Vnode.t) report label stale i (p : Pointer.t) =
  if Network.is_live t p.Pointer.dst then stale
  else if i = 0 then begin
    report
      (Printf.sprintf "%s: %s head points to dead id %s" (Id.to_short_string vn.Vnode.id)
         label (Id.to_short_string p.Pointer.dst));
    stale
  end
  else stale + 1

let rec check_succs t (vn : Vnode.t) report stale i =
  if i = Array.length vn.Vnode.succ_ptrs then stale
  else
    check_succs t vn report
      (judge_entry t vn report "successor" stale i vn.Vnode.succ_ptrs.(i))
      (i + 1)

let rec check_preds t vn report stale i = function
  | [] -> stale
  | p :: rest ->
    check_preds t vn report (judge_entry t vn report "predecessor" stale i p) (i + 1) rest

(* A sweep over every member that allocates nothing for a member it finds
   in order: liveness tests are option-free, the oracle successor is a
   cursor, and violations alone build strings. *)
let check (t : Network.t) =
  let violations = ref [] in
  let checked = ref 0 in
  let stale_tails = ref 0 in
  let report s = violations := s :: !violations in
  let bad fmt = Printf.ksprintf report fmt in
  Network.iter_members t (fun (vn : Vnode.t) ->
      let id = vn.Vnode.id in
      if vn.Vnode.alive then begin
        incr checked;
        match vn.Vnode.host_class with
        | Vnode.Stable | Vnode.Router_default ->
          (* (b) successor pointer agreement. *)
          let c = Network.oracle_successor_of t vn in
          if not (Ring.cursor_is_none c) then begin
            let want = Ring.id_at t.Network.oracle c in
            if Vnode.succ_count vn = 0 then
              bad "%s: missing successor, oracle expects %s" (Id.to_short_string id)
                (Id.to_short_string want)
            else begin
              let got = vn.Vnode.succ_ptrs.(0).Pointer.dst in
              if not (Id.equal got want) then
                bad "%s: successor %s, oracle expects %s" (Id.to_short_string id)
                  (Id.to_short_string got) (Id.to_short_string want)
            end
          end;
          (* (c) group HEADS lead to live state; stale tails are lazily
             repaired and only counted. *)
          stale_tails := check_succs t vn report !stale_tails 0;
          stale_tails := check_preds t vn report !stale_tails 0 vn.Vnode.preds
        | Vnode.Ephemeral ->
          (* Attachment present at the ring predecessor. *)
          (match vn.Vnode.preds with
           | (p : Pointer.t) :: _ ->
             let pr = t.Network.routers.(p.Pointer.dst_router) in
             (match Hashtbl.find pr.Network.attachments id with
              | host when host = vn.Vnode.hosted_at -> ()
              | host ->
                bad "%s: attachment points to router %d, host is at %d"
                  (Id.to_short_string id) host vn.Vnode.hosted_at
              | exception Not_found ->
                bad "%s: no attachment at predecessor router %d" (Id.to_short_string id)
                  p.Pointer.dst_router)
           | [] -> bad "%s: ephemeral id with no predecessor" (Id.to_short_string id))
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
