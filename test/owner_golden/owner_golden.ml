module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Graph = Rofl_topology.Graph
module Proto = Rofl_proto.Proto
module Alpha = Rofl_proto.Alpha

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

let summary ab =
  let resolved = ref 0 and ring = ref 0 and link = ref 0 and lat = ref 0.0 in
  let wasted = ref 0 and wasted_link = ref 0 in
  let owners = Buffer.create 4096 in
  for i = 0 to Alpha.length ab - 1 do
    if Alpha.resolved ab i then begin
      incr resolved;
      Buffer.add_string owners (Id.to_hex (Alpha.owner_id ab i));
      Buffer.add_string owners (string_of_int (Alpha.owner_router ab i))
    end;
    ring := !ring + Alpha.ring_hops ab i;
    link := !link + Alpha.link_hops ab i;
    lat := !lat +. Alpha.latency_ms ab i;
    wasted := !wasted + Alpha.wasted_hops ab i;
    wasted_link := !wasted_link + Alpha.wasted_link_hops ab i
  done;
  Printf.sprintf
    "resolved=%d ring=%d link=%d latency=%.6f wasted=%d wasted_link=%d cancel=%d \
     owners=%s"
    !resolved !ring !link !lat !wasted !wasted_link (Alpha.cancellations ab)
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
