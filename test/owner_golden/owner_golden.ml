module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Graph = Rofl_topology.Graph
module Proto = Rofl_proto.Proto

let ring () =
  let isp = Isp.generate (Prng.create 2006) Isp.as3967 in
  let cfg = { Proto.default_config with pcache_capacity = 16 } in
  let t =
    Proto.create ~rng:(Prng.create 2007) ~cfg ~bootstrap_hosts:300 isp.Isp.graph
  in
  let pn = Graph.n isp.Isp.graph in
  let rng = Prng.create 2008 in
  let members = Array.of_list (Proto.members t) in
  let pick () = members.(Prng.int rng (Array.length members)) in
  for _ = 1 to 256 do
    Proto.lookup_async t ~from:(Prng.int rng pn) (pick ()) (fun _ -> ())
  done;
  ignore (Proto.run_until_quiescent t ~max_ms:60_000.0);
  ignore (Proto.crash t members.(Array.length members / 3));
  Proto.run_for t 40.0;
  let from = Array.init 512 (fun _ -> Prng.int rng pn) in
  let targets =
    Array.init 512 (fun k -> if k mod 3 = 0 then Id.random rng else pick ())
  in
  (t, from, targets)

let summary t ~alpha ~from ~targets =
  let w = Proto.owner_walk ~alpha in
  let resolved = ref 0 and ring = ref 0 and link = ref 0 and lat = ref 0.0 in
  let wasted = ref 0 and wasted_link = ref 0 and cancel = ref 0 in
  let owners = Buffer.create 4096 in
  Array.iteri
    (fun k from ->
      Proto.walk_owner t w ~from ~target:targets.(k);
      if w.w_winner >= 0 then begin
        incr resolved;
        Buffer.add_string owners (Id.to_hex w.w_owner);
        Buffer.add_string owners (string_of_int w.w_router.(w.w_winner))
      end;
      let c = Proto.charged w in
      ring := !ring + w.w_hops.(c);
      link := !link + w.w_link_hops.(c);
      lat := !lat +. w.w_latency_ms.(c);
      wasted := !wasted + w.w_wasted_hops;
      wasted_link := !wasted_link + w.w_wasted_link_hops;
      cancel := !cancel + w.w_cancelled)
    from;
  Printf.sprintf
    "resolved=%d ring=%d link=%d latency=%.6f wasted=%d wasted_link=%d cancel=%d \
     owners=%s"
    !resolved !ring !link !lat !wasted !wasted_link !cancel
    (Digest.to_hex (Digest.string (Buffer.contents owners)))

let expected =
  [
    ( 1,
      "resolved=471 ring=9613 link=63468 latency=81439.661374 wasted=0 \
       wasted_link=0 cancel=0 owners=6ffd367f04730f99758dcf8a87eca4d4" );
    ( 3,
      "resolved=505 ring=6284 link=41672 latency=53235.307952 wasted=12535 \
       wasted_link=82986 cancel=973 owners=a8b38c40dd5b48ecfb2e4b223cd0e1e2" );
  ]
