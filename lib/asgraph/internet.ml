module Prng = Rofl_util.Prng

type params = {
  n_tier1 : int;
  n_tier2 : int;
  n_tier3 : int;
  n_stub : int;
  multihome_fraction : float;
  peer_fraction : float;
  backup_fraction : float;
}

let default_params =
  {
    n_tier1 = 10;
    n_tier2 = 90;
    n_tier3 = 250;
    n_stub = 750;
    multihome_fraction = 0.45;
    peer_fraction = 0.08;
    backup_fraction = 0.25;
  }

let small_params =
  {
    n_tier1 = 4;
    n_tier2 = 12;
    n_tier3 = 30;
    n_stub = 74;
    multihome_fraction = 0.45;
    peer_fraction = 0.1;
    backup_fraction = 0.25;
  }

type t = { graph : Asgraph.t; tier_of : int array; params : params }

let generate rng params =
  let { n_tier1; n_tier2; n_tier3; n_stub; _ } = params in
  if n_tier1 < 2 then invalid_arg "Internet.generate: need >= 2 tier-1 ASes";
  let total = n_tier1 + n_tier2 + n_tier3 + n_stub in
  let g = Asgraph.create total in
  let tier_of = Array.make total 4 in
  let t1_lo = 0 and t1_hi = n_tier1 - 1 in
  let t2_lo = n_tier1 and t2_hi = n_tier1 + n_tier2 - 1 in
  let t3_lo = t2_hi + 1 and t3_hi = t2_hi + n_tier3 in
  let stub_lo = t3_hi + 1 in
  for a = t1_lo to t1_hi do tier_of.(a) <- 1 done;
  for a = t2_lo to t2_hi do tier_of.(a) <- 2 done;
  for a = t3_lo to t3_hi do tier_of.(a) <- 3 done;
  (* Tier-1 clique: full peering mesh, no providers. *)
  for a = t1_lo to t1_hi do
    for b = a + 1 to t1_hi do
      Asgraph.add_peer g a b
    done
  done;
  (* Pick k distinct providers for [a] from an index range, weighted towards
     low indices (big providers attract more customers). *)
  let pick_providers a lo hi k =
    let range = hi - lo + 1 in
    let k = min k range in
    let chosen = Hashtbl.create 4 in
    let attempts = ref 0 in
    while Hashtbl.length chosen < k && !attempts < 200 do
      incr attempts;
      let p = lo + (Prng.zipf rng ~n:range ~s:0.8 - 1) in
      if p <> a && not (Hashtbl.mem chosen p) then Hashtbl.add chosen p ()
    done;
    Hashtbl.fold (fun p () acc -> p :: acc) chosen []
  in
  let is_multihomed () = Prng.float rng 1.0 < params.multihome_fraction in
  let provider_count () = if is_multihomed () then Prng.int_in rng 2 3 else 1 in
  let connect a lo hi =
    let ps = pick_providers a lo hi (provider_count ()) in
    let ps = if ps = [] then [ lo ] else ps in
    (* One provider is primary; each extra one is a backup link with
       probability backup_fraction. *)
    List.iteri
      (fun i p ->
        if i > 0 && Prng.float rng 1.0 < params.backup_fraction then
          Asgraph.add_backup g ~customer:a ~provider:p
        else Asgraph.add_provider g ~customer:a ~provider:p)
      ps
  in
  for a = t2_lo to t2_hi do
    connect a t1_lo t1_hi
  done;
  for a = t3_lo to t3_hi do
    (* Mostly tier-2 providers, occasionally direct to tier-1. *)
    if n_tier2 > 0 && Prng.float rng 1.0 < 0.9 then connect a t2_lo t2_hi
    else connect a t1_lo t1_hi
  done;
  for a = stub_lo to total - 1 do
    if n_tier3 > 0 && Prng.float rng 1.0 < 0.75 then connect a t3_lo t3_hi
    else if n_tier2 > 0 then connect a t2_lo t2_hi
    else connect a t1_lo t1_hi
  done;
  (* Same-tier peering among tier-2 and tier-3. *)
  let add_tier_peers lo hi =
    if hi > lo then begin
      let count =
        int_of_float (params.peer_fraction *. float_of_int ((hi - lo + 1) * 2))
      in
      let added = ref 0 and attempts = ref 0 in
      while !added < count && !attempts < 50 * (count + 1) do
        incr attempts;
        let a = Prng.int_in rng lo hi and b = Prng.int_in rng lo hi in
        if
          a <> b
          && (not (Asgraph.is_peer_edge g a b))
          && (not (Asgraph.is_provider_edge g ~customer:a ~provider:b))
          && not (Asgraph.is_provider_edge g ~customer:b ~provider:a)
        then begin
          Asgraph.add_peer g a b;
          incr added
        end
      done
    end
  in
  add_tier_peers t2_lo t2_hi;
  add_tier_peers t3_lo t3_hi;
  (match Asgraph.validate g with
   | Ok () -> ()
   | Error e -> invalid_arg ("Internet.generate: " ^ e));
  { graph = g; tier_of; params }

let stubs t =
  let acc = ref [] in
  Array.iteri (fun a tier -> if tier = 4 then acc := a :: !acc) t.tier_of;
  List.rev !acc
