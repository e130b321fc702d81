module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Network = Rofl_intra.Network
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Metrics = Rofl_netsim.Metrics

type group = Id.t (* suffix zeroed *)

let fresh_group rng = Id.group_key (Id.random rng)

let group_id g = g

let member_id g ~suffix = Id.with_low32 g suffix

let join_server net g ~gateway ~suffix =
  Network.join_host net ~gateway ~id:(member_id g ~suffix) ~cls:Vnode.Stable

type delivery = { server : Id.t option; hops : int }

let route net ~from g rng =
  let r = Int64.to_int32 (Prng.bits64 rng) in
  let target = member_id g ~suffix:r in
  let res = Network.lookup net ~from ~target ~category:Metrics.Data ~use_cache:true in
  match res.Network.status with
  | Network.Delivered vn -> { server = Some vn.Vnode.id; hops = res.Network.msgs }
  | Network.Predecessor vn when Id.same_group vn.Vnode.id target ->
    { server = Some vn.Vnode.id; hops = res.Network.msgs }
  | Network.Predecessor vn ->
    (* The random suffix fell before every member: the group's first member
       is the predecessor's successor. *)
    (match Vnode.first_succ vn with
     | Some (p : Pointer.t) when Id.same_group p.Pointer.dst target -> (
       let extra =
         Network.charge_spf_into net.Network.ls net.Network.metrics Metrics.Data
           vn.Vnode.hosted_at p.Pointer.dst_router ~latency:[| 0.0 |] 0
       in
       if extra >= 0 then { server = Some p.Pointer.dst; hops = res.Network.msgs + extra }
       else { server = None; hops = res.Network.msgs })
     | Some _ | None -> { server = None; hops = res.Network.msgs })
  | Network.Stuck _ -> { server = None; hops = res.Network.msgs }

let members_alive net g =
  let rev = ref [] in
  Network.iter_members net (fun (vn : Vnode.t) ->
      if vn.Vnode.alive && Id.same_group vn.Vnode.id g then rev := vn.Vnode.id :: !rev);
  List.sort Id.compare !rev
