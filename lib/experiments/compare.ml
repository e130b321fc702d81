module Table = Rofl_util.Table
module Stats = Rofl_util.Stats
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Network = Rofl_intra.Network
module Compact = Rofl_baselines.Compact
module Wire = Rofl_core.Wire
module Vnode = Rofl_core.Vnode
module Pointer_cache = Rofl_core.Pointer_cache

let compact_vs_rofl (scale : Common.scale) =
  let t =
    Table.create
      ~title:"Compact routing (Thorup-Zwick stretch-3) vs ROFL on the same ISP"
      ~columns:
        [ "scheme"; "ISP"; "mean stretch"; "max stretch"; "state/router [entries]";
          "resolution-free?" ]
  in
  List.iter
    (fun profile ->
      (* ROFL with its default cache. *)
      let run : Common.intra_run =
        Common.build_intra ~seed:scale.Common.seed
          ~hosts:(max 100 (scale.Common.intra_hosts / 2))
          profile
      in
      let rng = Prng.create (scale.Common.seed + 71) in
      let samples =
        Common.mean_stretch_intra run ~pairs:scale.Common.intra_pairs ~rng
      in
      let rofl_state =
        (* Ring state plus cache occupancy. *)
        let net = run.Common.net in
        let total = ref 0 in
        Array.iter
          (fun (r : Network.router) ->
            total :=
              !total
              + Network.router_state_entries net r.Network.idx
              + Pointer_cache.length r.Network.cache)
          net.Network.routers;
        float_of_int !total /. float_of_int (Array.length net.Network.routers)
      in
      (if samples <> [] then
         let mx = List.fold_left Float.max 1.0 samples in
         Table.add_row t
           [
             "ROFL";
             profile.Isp.profile_name;
             Table.fmt_float (Stats.mean samples);
             Table.fmt_float mx;
             Table.fmt_float rofl_state;
             "yes";
           ]);
      (* Compact routing over the identical graph. *)
      let c = Compact.build (Prng.create (scale.Common.seed + 72)) run.Common.isp.Isp.graph in
      let n = Rofl_topology.Graph.n run.Common.isp.Isp.graph in
      let cr = Prng.create (scale.Common.seed + 73) in
      let cs = ref [] in
      for _ = 1 to scale.Common.intra_pairs do
        let a = Prng.int cr n and b = Prng.int cr n in
        match Compact.stretch c ~src:a ~dst:b with
        | Some s -> cs := s :: !cs
        | None -> ()
      done;
      if !cs <> [] then
        Table.add_row t
          [
            "compact (TZ)";
            profile.Isp.profile_name;
            Table.fmt_float (Stats.mean !cs);
            Table.fmt_float (List.fold_left Float.max 1.0 !cs);
            Table.fmt_float (Compact.avg_table_entries c);
            "no (needs address lookup)";
          ])
    scale.Common.isps;
  [ t ]

let message_sizes (scale : Common.scale) =
  let rng = Prng.create scale.Common.seed in
  let t =
    Table.create ~title:"Control message sizes over the wire encodings (§6.3)"
      ~columns:[ "message"; "bytes"; "IP packets @1500 MTU" ]
  in
  let add name m =
    Table.add_row t
      [ name; string_of_int (Wire.size_bytes m); string_of_int (Wire.ip_packets m) ]
  in
  add "join request (8-AS source route)"
    (Wire.Join_request
       { joining = Rofl_idspace.Id.random rng; origin_router = 3; as_path = [ 1; 2; 3; 4; 5; 6; 7; 8 ] });
  List.iter
    (fun fingers ->
      add
        (Printf.sprintf "join reply, %d fingers" fingers)
        (Wire.finger_join_reply ~fingers rng))
    [ 0; 60; 160; 256; 340 ];
  add "teardown" (Wire.Teardown { dead = Rofl_idspace.Id.random rng; origin_router = 9 });
  add "zero-ID advert (4-hop via)"
    (Wire.Zero_id_advert { zero = Rofl_idspace.Id.random rng; via = [ 1; 2; 3; 4 ] });
  ignore (Vnode.host_class_to_string Vnode.Stable);
  [ t ]
