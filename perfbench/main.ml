(* The repository benchmark: three workloads over the public entry points of
   the lib/ libraries, timed from outside.

     main.exe --workload intra-fig|async-churn|inter-fig --seed N
              --seconds S --trace 0|1

   A run is a fixed number of rounds (derived from --seconds).  A round
   builds its system (timed as set-up, repeated from the same inputs so the
   set-up time is a median), runs a timed phase of fixed size, and checks
   every output.  Round r draws its topology from the fixed seed
   [topology_seed + r], standing in for the paper's measured topologies,
   and everything else (hosts, gateways, lookups, churn) from --seed.

   --trace 0 prints the end-to-end metrics, timings scaled to a reference
   host speed measured between rounds (see [Host]).  --trace 1 runs each round
   untraced and then traced on identical inputs, compares their model
   outputs, and prints the per-layer metrics of the traced pass: self time
   of spans around every library call, plus the libraries' own counters.
   The last line of standard output is the JSON result.  METRICS.md in this
   directory defines every metric. *)

module Prng = Rofl_util.Prng
module Pool = Rofl_util.Pool
module Id = Rofl_idspace.Id
module Graph = Rofl_topology.Graph
module Isp = Rofl_topology.Isp
module Metrics = Rofl_netsim.Metrics
module Shard = Rofl_netsim.Shard
module Vnode = Rofl_core.Vnode
module Pointer_cache = Rofl_core.Pointer_cache
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Internet = Rofl_asgraph.Internet
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Hostdist = Rofl_workload.Hostdist
module Churn = Rofl_workload.Churn
module Proto = Rofl_proto.Proto

let now = Unix.gettimeofday

(* Minor words allocated so far by this domain plus every Pool worker: OCaml 5
   GC counters are per domain, so the main domain's delta alone misses what
   shard windows allocate on worker domains. *)
let minor_words () = Gc.minor_words () +. float_of_int (Pool.worker_minor_words ())

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------------ *)
(* Spans *)

(* A span is one call into a library, or the benchmark's own timed region
   around such calls.  Spans nest; a span's self time is its duration minus
   the time its child spans cover.  Spans go to a preallocated buffer
   written out at exit; self time is also summed per kind as spans close, so
   the sums stay exact when the buffer is full.  Switched off,
   [enter]/[leave] only test a flag and allocate nothing. *)
module Span = struct
  let kinds =
    [|
      "bench"; "topology.generate"; "asgraph.generate"; "workload.trace";
      "intra.create"; "intra.join"; "intra.repair"; "intra.invariant";
      "routing.forward"; "linkstate.spf"; "inter.create"; "inter.join";
      "inter.route"; "inter.isolation"; "baselines.bgp"; "proto.create";
      "proto.inject"; "proto.owner"; "proto.query"; "netsim.run";
    |]

  let kind name =
    let rec go i =
      if i = Array.length kinds then invalid_arg ("Span.kind " ^ name)
      else if kinds.(i) = name then i
      else go (i + 1)
    in
    go 0

  let bench = kind "bench"
  let on = ref false
  let cap = 1 lsl 18
  let b_kind = Array.make cap 0
  let b_parent = Array.make cap 0
  let b_op = Array.make cap 0
  let b_start = Array.make cap 0.0
  let b_stop = Array.make cap 0.0
  let b_len = ref 0
  let dropped = ref 0
  let max_depth = 32
  let st_kind = Array.make max_depth 0
  let st_idx = Array.make max_depth (-1)
  let st_start = Array.make max_depth 0.0
  let st_child = Array.make max_depth 0.0
  let depth = ref 0
  let self_s = Array.make (Array.length kinds) 0.0
  let calls = Array.make (Array.length kinds) 0

  let reset_totals () =
    Array.fill self_s 0 (Array.length self_s) 0.0;
    Array.fill calls 0 (Array.length calls) 0

  let enter k op =
    if !on then begin
      let d = !depth in
      let t = now () in
      let idx =
        if !b_len < cap then begin
          let i = !b_len in
          b_len := i + 1;
          b_kind.(i) <- k;
          b_parent.(i) <- (if d = 0 then -1 else st_idx.(d - 1));
          b_op.(i) <- op;
          b_start.(i) <- t;
          i
        end
        else begin
          incr dropped;
          -1
        end
      in
      st_kind.(d) <- k;
      st_idx.(d) <- idx;
      st_start.(d) <- t;
      st_child.(d) <- 0.0;
      depth := d + 1
    end

  let leave () =
    if !on then begin
      let t = now () in
      let d = !depth - 1 in
      depth := d;
      let dur = t -. st_start.(d) in
      let k = st_kind.(d) in
      self_s.(k) <- self_s.(k) +. (dur -. st_child.(d));
      calls.(k) <- calls.(k) + 1;
      if d > 0 then st_child.(d - 1) <- st_child.(d - 1) +. dur;
      let idx = st_idx.(d) in
      if idx >= 0 then b_stop.(idx) <- t
    end

  let self k = self_s.(kind k)
  let count k = calls.(kind k)

  let write path =
    let oc = open_out path in
    output_string oc "id\tname\tstart_s\tend_s\tparent\top\n";
    let t0 = if !b_len > 0 then b_start.(0) else 0.0 in
    for i = 0 to !b_len - 1 do
      Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" i kinds.(b_kind.(i))
        (b_start.(i) -. t0) (b_stop.(i) -. t0) b_parent.(i) b_op.(i)
    done;
    close_out oc
end

(* Spans of one join, lookup, slice or repair cycle share an op id. *)
let op_counter = ref 0

let next_op () =
  incr op_counter;
  !op_counter

(* ------------------------------------------------------------------------ *)
(* Helpers *)

(* Round r of every run uses the same topology, so seed-to-seed spread
   comes from the hosts and queries, not from a different graph. *)
let topology_seed = 20060911

let seed_of base round salt = (base * 1_000_003) + (round * 7919) + salt

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  end

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = quantile (sorted_of_list xs) 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host speed.  On a shared host the speed of memory-bound code drifts by a
   third or more over seconds to minutes, as other tenants load the caches
   and memory bus, and a slow period can last a whole run.  So between rounds the benchmark times a
   fixed kernel of its own with the simulator's kind of work: it fills a
   hash table of boxed values (allocation, promotion, resizing), probes it
   at random and scans it.  A round's timings are scaled by [reference_s]
   over the kernel's time around the round: they read as seconds on a host
   where the kernel takes [reference_s].  The kernel is benchmark code and
   starts from a fully collected heap, so a change to the program moves the
   raw timings and the scaled ones alike. *)
module Host = struct
  (* Kernel time (s), the median over the tuning runs on a shared 2-core
     x86-64 host. *)
  let reference_s = 0.05

  let kernel () =
    let st = Random.State.make [| 42 |] in
    let h = Hashtbl.create 1024 in
    for i = 0 to 100_000 do
      Hashtbl.replace h (Random.State.bits st) (i, [ i; i + 1 ])
    done;
    let acc = ref 0 in
    for _ = 0 to 100_000 do
      match Hashtbl.find_opt h (Random.State.bits st) with
      | Some (i, _) -> acc := !acc + i
      | None -> incr acc
    done;
    Hashtbl.iter (fun k (i, l) -> acc := !acc + k + i + List.length l) h;
    !acc

  (* Median of five kernel runs. *)
  let kernel_s () =
    Gc.full_major ();
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           ignore (Sys.opaque_identity (kernel ()));
           now () -. t0))
end

(* Growable float sample buffer: per-call timings without boxing. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  let mean t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    ratio !s (float_of_int t.n)
end

(* Order-sensitive digest of a round's model outputs: passes over the same
   inputs must agree on it exactly, traced or not. *)
module Digest_acc = struct
  type t = { mutable h : int }

  let create () = { h = 17 }
  let int t x = t.h <- Hashtbl.hash (t.h, x)
  let float t x = int t (Hashtbl.hash (Int64.bits_of_float x))
  let id t x = int t (Id.hash x)
end

(* Named failures, counted while the run goes on.  A check failure means an
   output of a host call is wrong.  A simulated failure is a model outcome,
   a lookup or join the message-driven protocol gave up on: it counts in
   [fail_share] but is not a failed host call. *)
let check_failures : (string, int) Hashtbl.t = Hashtbl.create 8
let sim_failures : (string, int) Hashtbl.t = Hashtbl.create 8

let bump tbl name n =
  if n > 0 then Hashtbl.replace tbl name (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let check_fail name = bump check_failures name 1

(* ------------------------------------------------------------------------ *)
(* Metric catalogue: BENCHMARK.json lists the same names and units. *)

(* End-to-end metrics, reported by every workload. *)
let end_to_end =
  [
    ("setup_s", "s"); ("run_s", "s"); ("lookup_per_s", "1/s"); ("lookup_p50_us", "us");
    ("lookup_p95_us", "us"); ("minor_mwords", "Mwords"); ("live_heap_mb", "MB");
  ]

(* Per-layer metrics, reported by every workload: 0 where a workload never
   enters the layer. *)
let per_layer =
  let s n = (n, "s") and c n = (n, "count") and r n = (n, "ratio") and m n = (n, "msgs") in
  let w n = (n, "words") in
  let gc phases =
    List.concat_map (fun p -> [ ("gc.minor_mwords." ^ p, "Mwords"); c ("gc.major_collections." ^ p) ]) phases
  in
  [
    s "topology.generate_s"; s "asgraph.generate_s"; s "workload.trace_s";
    s "intra.create_s"; s "intra.join_busy_s"; c "intra.join_calls"; c "intra.join_errors";
    w "intra.join_words_per_call"; m "intra.join_msgs_mean"; m "intra.join_msgs_p95";
    s "intra.repair_busy_s"; m "intra.repair_msgs"; s "intra.invariant_s"; r "intra.stretch_mean";
  ]
  @ List.map (fun cat -> m ("intra.msgs." ^ cat))
      [ "data"; "flood"; "join"; "join-reply"; "repair"; "teardown"; "zero-id" ]
  @ [
      s "routing.forward_busy_s"; w "routing.forward_words_per_call";
      ("routing.hops_per_lookup", "hops"); r "routing.delivered_ratio";
      s "linkstate.spf_busy_s"; c "linkstate.spf_calls"; r "core.pcache_fill";
      s "netsim.run_busy_s"; c "netsim.events"; ("netsim.events_per_busy_s", "1/s");
      c "netsim.windows"; s "netsim.stall_s"; r "netsim.stall_share"; r "netsim.shard_imbalance";
      c "netsim.peak_pending"; w "netsim.words_per_window"; s "netsim.run_s_2dom";
      s "proto.create_s"; s "proto.inject_busy_s"; c "proto.inject_calls"; m "proto.msgs_total";
    ]
  @ List.map (fun cat -> m ("proto.msgs." ^ cat)) [ "join"; "lookup"; "repair"; "stabilize"; "verify" ]
  @ [
      m "proto.msgs_per_event"; ("proto.msgs_per_sim_s", "msgs/s"); c "proto.stabilize_rounds";
      c "proto.failovers"; c "proto.rpc_timeouts"; c "proto.join_retries";
      c "proto.lookup_retries"; c "proto.joins_failed"; r "proto.lookup_ok_ratio";
      ("proto.lookup_sim_p50_ms", "ms"); ("proto.lookup_sim_p99_ms", "ms"); s "proto.drain_s";
      s "proto.query_busy_s"; s "proto.owner_busy_s"; w "proto.owner_words_per_lookup";
      r "proto.owner_exact_ratio";
      s "inter.create_s"; s "inter.join_busy_s"; c "inter.join_calls";
      w "inter.join_words_per_call"; m "inter.join_msgs_mean"; s "inter.route_busy_s";
      w "inter.route_words_per_call"; ("inter.as_hops_mean", "hops"); r "inter.cache_hop_share";
      c "inter.peer_crossings"; r "inter.delivered_ratio"; r "inter.isolation_ok_ratio";
      s "inter.isolation_busy_s"; r "inter.stretch_mean";
      c "bloom.backtracks"; r "bloom.backtrack_ratio"; s "baselines.bgp_busy_s";
    ]
  @ gc [ "join"; "lookup"; "repair"; "churn"; "drain"; "owner" ]
  @ [
      ("gc.minor_mwords.sim", "Mwords"); ("gc.minor_mwords.sim_2dom", "Mwords");
      ("gc.minor_mwords.sim_1shard", "Mwords");
      s "bench.self_s"; r "trace.coverage"; r "trace.overhead"; c "trace.spans";
      c "trace.spans_dropped";
    ]

(* ------------------------------------------------------------------------ *)
(* Rounds *)

type round = {
  setup_s : float list;  (* every set-up repetition of the round *)
  run_s : float;
  minor_mwords : float;
  live_heap_mb : float;  (* live heap after the timed phase *)
  attempted : int;  (* host calls and checks *)
  failed : int;  (* host calls and checks whose output was wrong *)
  sim_attempted : int;  (* simulated lookups and joins (async-churn) *)
  sim_failed : int;
  digest : int;
  layer : (string * float) list;
}

(* Per-call samples of the current pass, cleared before every pass. *)
let join_lat = Samples.create ()
let lookup_lat = Samples.create ()
let slice_lat = Samples.create ()
let lookup_busy = ref 0.0
let lookup_calls = ref 0

let clear_samples () =
  List.iter (fun (x : Samples.t) -> x.Samples.n <- 0) [ join_lat; lookup_lat; slice_lat ];
  lookup_busy := 0.0;
  lookup_calls := 0

(* Timed-phase bracket: host time, minor words (all domains) and major
   collections of one named phase. *)
type phase = { p_name : string; p_s : float; p_words : float; p_major : int }

let run_phase name f =
  let w0 = minor_words () and m0 = major_collections () and t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = minor_words () and m1 = major_collections () in
  (r, { p_name = name; p_s = t1 -. t0; p_words = w1 -. w0; p_major = m1 - m0 })

let phase_layers phases =
  List.concat_map
    (fun p ->
      [
        ("gc.minor_mwords." ^ p.p_name, p.p_words /. 1e6);
        ("gc.major_collections." ^ p.p_name, float_of_int p.p_major);
      ])
    phases

let phase_words phases = List.fold_left (fun acc p -> acc +. p.p_words) 0.0 phases

let span_timed k op f =
  Span.enter k op;
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Span.leave ();
  (r, dt)

(* The timed region of a round, spanned as benchmark code so that its self
   time is exactly the part no library span covers. *)
let timed f = span_timed Span.bench (next_op ()) f

(* Live major-heap MB after a full collection, taken with the round's system
   [sys] still referenced: what the built system and everything the timed
   phase added to it hold, plus the benchmark's fixed buffers.  Exact for
   given inputs, unlike the process high-water mark, which moves with GC
   pacing. *)
let live_heap_mb sys =
  Gc.full_major ();
  let w = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity sys);
  float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

let trace_layers run_s =
  let bench_self = Span.self "bench" in
  [ ("bench.self_s", bench_self); ("trace.coverage", 1.0 -. ratio bench_self run_s) ]

(* One set-up call into a layer, spanned and timed. *)
let layer_call name f = span_timed (Span.kind name) 0 f

(* Set-up is built three times from the same inputs, each build timed; the
   round uses the last.  The heap is then compacted, so the timed phase
   starts from the same GC state whatever the set-up left behind. *)
let repeat_setup f =
  let times = ref [] and last = ref None in
  for _ = 1 to 3 do
    let t0 = now () in
    let x = f () in
    times := (now () -. t0) :: !times;
    last := Some x
  done;
  Gc.compact ();
  (Option.get !last, !times)

(* ------------------------------------------------------------------------ *)
(* intra-fig: AS1239 with 1024-entry pointer caches; joins at PoP-weighted
   gateways, stretch lookups, leaf-PoP partition/heal cycles. *)

let intra_joins = 5000
let intra_lookups = 6000
let intra_cycles = 1

let intra_round ~seed ~round:r =
  let dg = Digest_acc.create () in
  let failed = ref 0 and attempted = ref 0 in
  let (isp, net, gw, pick, topo_s, create_s), setup_s =
    repeat_setup (fun () ->
        let isp, topo_s =
          layer_call "topology.generate" (fun () ->
              Isp.generate (Prng.create (topology_seed + r)) Isp.as1239)
        in
        let net, create_s =
          layer_call "intra.create" (fun () ->
              Network.create ~rng:(Prng.create (seed_of seed r 1)) isp.Isp.graph)
        in
        let gw = Hostdist.gateway_sampler (Prng.create (seed_of seed r 2)) isp in
        (isp, net, gw, Prng.create (seed_of seed r 3), topo_s, create_s))
  in
  let routers = Graph.n isp.Isp.graph in
  (* The partitioned PoPs belong to the topology: drawn from its seed. *)
  let pop_rng = Prng.create (topology_seed + 1000 + r) in
  let leaf_pops =
    match
      List.filter (fun (p : Isp.pop) -> List.length p.Isp.core <= 2) (Array.to_list isp.Isp.pops)
    with
    | [] -> isp.Isp.pops
    | ps -> Array.of_list ps
  in
  let ids = Array.make intra_joins Id.zero in
  let joined = ref 0 in
  let join_msgs = Samples.create () in
  let delivered = ref 0 and hops = ref 0 and stretch = Samples.create () in
  let repair_msgs = ref 0 in
  let cats0 = Metrics.categories net.Network.metrics in
  let (ph_join, ph_lookup, ph_repair, pcache_fill), run_s =
    timed (fun () ->
        let (), ph_join =
          run_phase "join" (fun () ->
              for _ = 1 to intra_joins do
                let g = gw () in
                incr attempted;
                Span.enter (Span.kind "intra.join") (next_op ());
                let t0 = now () in
                let res = Network.join_fresh_host net ~gateway:g ~cls:Vnode.Stable in
                Samples.add join_lat (now () -. t0);
                Span.leave ();
                match res with
                | Ok (id, o) ->
                  ids.(!joined) <- id;
                  incr joined;
                  Samples.add join_msgs (float_of_int o.Network.join_msgs);
                  Digest_acc.id dg id;
                  Digest_acc.int dg o.Network.join_msgs
                | Error _ ->
                  incr failed;
                  check_fail "intra.join_error"
              done)
        in
        let used = ref 0 and capacity = ref 0 in
        Array.iter
          (fun (rt : Network.router) ->
            used := !used + Pointer_cache.length rt.Network.cache;
            capacity := !capacity + Pointer_cache.capacity rt.Network.cache)
          net.Network.routers;
        let pcache_fill = ratio (float_of_int !used) (float_of_int !capacity) in
        let (), ph_lookup =
          run_phase "lookup" (fun () ->
              for _ = 1 to intra_lookups do
                let src = gw () in
                let dst = ids.(Prng.int pick (max 1 !joined)) in
                incr attempted;
                let op = next_op () in
                let t0 = now () in
                Span.enter (Span.kind "routing.forward") op;
                let d = Forward.route_packet net ~from:src ~dest:dst in
                Span.leave ();
                let sp =
                  match d.Forward.delivered_to with
                  | Some vn when Id.equal vn.Vnode.id dst ->
                    Span.enter (Span.kind "linkstate.spf") op;
                    let sp = Forward.shortest_hops net src vn.Vnode.hosted_at in
                    Span.leave ();
                    sp
                  | _ -> None
                in
                let dt = now () -. t0 in
                Samples.add lookup_lat dt;
                lookup_busy := !lookup_busy +. dt;
                incr lookup_calls;
                hops := !hops + d.Forward.hops;
                Digest_acc.int dg d.Forward.hops;
                Digest_acc.float dg d.Forward.latency_ms;
                match sp with
                | Some sp ->
                  incr delivered;
                  let s =
                    if sp = 0 then 1.0 else float_of_int (max d.Forward.hops 1) /. float_of_int sp
                  in
                  Samples.add stretch s;
                  Digest_acc.float dg s
                | None ->
                  incr failed;
                  check_fail "intra.lookup_not_delivered"
              done)
        in
        let (), ph_repair =
          run_phase "repair" (fun () ->
              for _ = 1 to intra_cycles do
                let pop = Prng.sample pop_rng leaf_pops in
                let rs = Isp.routers_of_pop isp pop.Isp.pop_id in
                incr attempted;
                let op = next_op () in
                Span.enter (Span.kind "intra.repair") op;
                let m1 = Failure.disconnect_routers net rs in
                let m2 = Failure.reconnect_routers net rs in
                Span.leave ();
                Span.enter (Span.kind "intra.invariant") op;
                let rep = Invariant.check net in
                Span.leave ();
                repair_msgs := !repair_msgs + m1 + m2;
                Digest_acc.int dg (m1 + m2);
                if not rep.Invariant.ok then begin
                  incr failed;
                  check_fail "intra.invariant_after_heal"
                end
              done)
        in
        (ph_join, ph_lookup, ph_repair, pcache_fill))
  in
  let layer_trace = trace_layers run_s in
  let live_mb = live_heap_mb (net, ids) in
  incr attempted;
  if Network.ring_size net <> routers + !joined then begin
    incr failed;
    check_fail "intra.ring_size"
  end;
  let cat_delta =
    List.map
      (fun (c, v) -> (c, v - Option.value ~default:0 (List.assoc_opt c cats0)))
      (Metrics.categories net.Network.metrics)
  in
  List.iter (fun cv -> Digest_acc.int dg (Hashtbl.hash cv)) cat_delta;
  let phases = [ ph_join; ph_lookup; ph_repair ] in
  let nl = float_of_int intra_lookups in
  {
    setup_s;
    run_s;
    minor_mwords = phase_words phases /. 1e6;
    live_heap_mb = live_mb;
    attempted = !attempted;
    failed = !failed;
    sim_attempted = 0;
    sim_failed = 0;
    digest = dg.Digest_acc.h;
    layer =
      [
        ("topology.generate_s", topo_s);
        ("intra.create_s", create_s);
        ("intra.join_busy_s", Span.self "intra.join");
        ("intra.join_calls", float_of_int intra_joins);
        ("intra.join_errors", float_of_int (intra_joins - !joined));
        ("intra.join_words_per_call", ph_join.p_words /. float_of_int intra_joins);
        ("intra.join_msgs_mean", Samples.mean join_msgs);
        ("intra.join_msgs_p95", quantile (Samples.sorted join_msgs) 0.95);
        ("intra.repair_busy_s", Span.self "intra.repair");
        ("intra.repair_msgs", float_of_int !repair_msgs);
        ("intra.invariant_s", Span.self "intra.invariant");
        ("intra.stretch_mean", Samples.mean stretch);
        ("routing.forward_busy_s", Span.self "routing.forward");
        ("routing.forward_words_per_call", ph_lookup.p_words /. nl);
        ("routing.hops_per_lookup", float_of_int !hops /. nl);
        ("routing.delivered_ratio", float_of_int !delivered /. nl);
        ("linkstate.spf_busy_s", Span.self "linkstate.spf");
        ("linkstate.spf_calls", float_of_int (Span.count "linkstate.spf"));
        ("core.pcache_fill", pcache_fill);
      ]
      @ List.map (fun (c, v) -> ("intra.msgs." ^ c, float_of_int v)) cat_delta
      @ phase_layers phases @ layer_trace;
  }

(* ------------------------------------------------------------------------ *)
(* inter-fig: the default ~1,100-AS Internet, Peering-strategy joins with
   bloom-filter peering and 128-entry per-AS caches; route + BGP stretch. *)

let inter_joins = 6000
let inter_lookups = 4000

let inter_cfg =
  { Net.default_config with Net.peering_mode = Net.Bloom_filters; Net.cache_capacity = 128 }

let inter_round ~seed ~round:r =
  let dg = Digest_acc.create () in
  let failed = ref 0 and attempted = ref 0 in
  let (net, stubs, pick, gen_s, create_s), setup_s =
    repeat_setup (fun () ->
        let inet, gen_s =
          layer_call "asgraph.generate" (fun () ->
              Internet.generate (Prng.create (topology_seed + r)) Internet.default_params)
        in
        let net, create_s =
          layer_call "inter.create" (fun () ->
              Net.create ~cfg:inter_cfg ~rng:(Prng.create (seed_of seed r 11)) inet.Internet.graph)
        in
        (net, Array.of_list (Internet.stubs inet), Prng.create (seed_of seed r 12), gen_s, create_s))
  in
  let hosts = ref [||] in
  let join_msgs = ref 0 in
  let delivered = ref 0 and iso_ok = ref 0 and as_hops = ref 0 in
  let pointer_hops = ref 0 and cache_hops = ref 0 and peer = ref 0 and backtracks = ref 0 in
  let stretch = Samples.create () in
  let (ph_join, ph_lookup), run_s =
    timed (fun () ->
        let (), ph_join =
          run_phase "join" (fun () ->
              hosts :=
                Array.init inter_joins (fun _ ->
                    let s = stubs.(Prng.zipf pick ~n:(Array.length stubs) ~s:0.9 - 1) in
                    incr attempted;
                    Span.enter (Span.kind "inter.join") (next_op ());
                    let t0 = now () in
                    let o = Net.join net ~as_idx:s ~strategy:Net.Peering in
                    Samples.add join_lat (now () -. t0);
                    Span.leave ();
                    let m = o.Net.lookup_msgs + o.Net.finger_msgs in
                    join_msgs := !join_msgs + m;
                    Digest_acc.id dg o.Net.host.Net.id;
                    Digest_acc.int dg m;
                    o.Net.host))
        in
        let (), ph_lookup =
          run_phase "lookup" (fun () ->
              for _ = 1 to inter_lookups do
                let a = Prng.sample pick !hosts in
                let dst = (Prng.sample pick !hosts).Net.id in
                incr attempted;
                let op = next_op () in
                let t0 = now () in
                Span.enter (Span.kind "inter.route") op;
                let res = Route.route_from net ~src:a ~dst in
                Span.leave ();
                Span.enter (Span.kind "inter.isolation") op;
                let iso = Route.isolation_respected net res ~src:a ~dst in
                Span.leave ();
                Span.enter (Span.kind "baselines.bgp") op;
                let st = Route.stretch_vs_bgp net ~src:a ~dst in
                Span.leave ();
                let dt = now () -. t0 in
                Samples.add lookup_lat dt;
                lookup_busy := !lookup_busy +. dt;
                incr lookup_calls;
                as_hops := !as_hops + res.Route.as_hops;
                pointer_hops := !pointer_hops + res.Route.pointer_hops;
                cache_hops := !cache_hops + res.Route.cache_hops;
                peer := !peer + res.Route.peer_crossings;
                backtracks := !backtracks + res.Route.backtracks;
                Digest_acc.int dg res.Route.as_hops;
                Digest_acc.int dg res.Route.backtracks;
                Option.iter
                  (fun s ->
                    Samples.add stretch s;
                    Digest_acc.float dg s)
                  st;
                if res.Route.delivered then incr delivered
                else check_fail "inter.route_not_delivered";
                if iso then incr iso_ok else check_fail "inter.isolation_violated";
                if not (res.Route.delivered && iso) then incr failed
              done)
        in
        (ph_join, ph_lookup))
  in
  let layer_trace = trace_layers run_s in
  let live_mb = live_heap_mb (net, !hosts) in
  let phases = [ ph_join; ph_lookup ] in
  let nl = float_of_int inter_lookups in
  {
    setup_s;
    run_s;
    minor_mwords = phase_words phases /. 1e6;
    live_heap_mb = live_mb;
    attempted = !attempted;
    failed = !failed;
    sim_attempted = 0;
    sim_failed = 0;
    digest = dg.Digest_acc.h;
    layer =
      [
        ("asgraph.generate_s", gen_s);
        ("inter.create_s", create_s);
        ("inter.join_busy_s", Span.self "inter.join");
        ("inter.join_calls", float_of_int inter_joins);
        ("inter.join_words_per_call", ph_join.p_words /. float_of_int inter_joins);
        ("inter.join_msgs_mean", float_of_int !join_msgs /. float_of_int inter_joins);
        ("inter.route_busy_s", Span.self "inter.route");
        ("inter.route_words_per_call", ph_lookup.p_words /. nl);
        ("inter.as_hops_mean", float_of_int !as_hops /. nl);
        ("inter.cache_hop_share", ratio (float_of_int !cache_hops) (float_of_int !pointer_hops));
        ("inter.peer_crossings", float_of_int !peer);
        ("inter.delivered_ratio", float_of_int !delivered /. nl);
        ("inter.isolation_ok_ratio", float_of_int !iso_ok /. nl);
        ("inter.isolation_busy_s", Span.self "inter.isolation");
        ("inter.stretch_mean", Samples.mean stretch);
        ("bloom.backtracks", float_of_int !backtracks);
        ("bloom.backtrack_ratio", ratio (float_of_int !backtracks) (float_of_int !peer));
        ("baselines.bgp_busy_s", Span.self "baselines.bgp");
      ]
      @ phase_layers phases @ layer_trace;
  }

(* ------------------------------------------------------------------------ *)
(* async-churn: message-driven Proto on AS1239, 2,000 bootstrap hosts,
   static 50 ms stabilisation, 2 shards; a churn trace and open-loop
   lookups injected as global events, then a drain to convergence and a
   closed loop of owner reads over the converged ring. *)

let churn_horizon_ms = 3000.0
let churn_slice_ms = 50.0
let churn_bootstrap = 2000
let churn_lookup_gap_ms = 5.0
let churn_warmup_ms = 1000.0
let churn_guard_ms = 3000.0
let churn_drain_max_ms = 30000.0
let owner_reads = 64000
let owner_batch = 16

(* What the shard-count determinism pin compares. *)
type churn_outputs = {
  fingerprint : int;
  stats : Proto.stats;
  outcomes : (float * float * string * bool * int) list;
}

let async_round ~seed ~round:r ~shards ~pool =
  let dg = Digest_acc.create () in
  let failed = ref 0 and attempted = ref 0 in
  let cfg = Proto.default_config in
  let inject f =
    Span.enter (Span.kind "proto.inject") (next_op ());
    f ();
    Span.leave ()
  in
  let query f =
    Span.enter (Span.kind "proto.query") 0;
    let x = f () in
    Span.leave ();
    x
  in
  let (proto, gw, pick, n_injected, buckets, topo_s, trace_s, create_s), setup_s =
    repeat_setup (fun () ->
        let isp, topo_s =
          layer_call "topology.generate" (fun () ->
              Isp.generate (Prng.create (topology_seed + r)) Isp.as1239)
        in
        let trace, trace_s =
          layer_call "workload.trace" (fun () ->
              Churn.generate (Prng.create (seed_of seed r 21)) ~horizon_ms:churn_horizon_ms
                ~arrival_rate_per_s:4.0 ~mean_lifetime_s:5.0 ~move_fraction:0.2
                ~crash_fraction:0.2 ())
        in
        let lookup_hint =
          16 + int_of_float (ceil (cfg.Proto.lookup_timeout_ms /. churn_lookup_gap_ms))
        in
        let proto, create_s =
          layer_call "proto.create" (fun () ->
              Proto.create ~rng:(Prng.create (seed_of seed r 22)) ~cfg ~shards ?pool
                ~bootstrap_hosts:churn_bootstrap ~lookup_hint isp.Isp.graph)
        in
        let coord = Proto.coordinator proto in
        let gw = Hostdist.gateway_sampler (Prng.create (seed_of seed r 23)) isp in
        let pick = Prng.create (seed_of seed r 24) in
        let boot = Array.of_list (Proto.members proto) in
        let taken = Hashtbl.create (2 * Array.length boot) in
        Array.iter (fun id -> Hashtbl.replace taken id ()) boot;
        let id_rng = Prng.create (seed_of seed r 25) in
        let n_sessions = List.fold_left (fun acc e -> max acc (Churn.event_seq e + 1)) 0 trace in
        let session_ids =
          Array.init n_sessions (fun _ ->
              let rec fresh () =
                let id = Id.random id_rng in
                if Hashtbl.mem taken id then fresh ()
                else begin
                  Hashtbl.replace taken id ();
                  id
                end
              in
              fresh ())
        in
        let departs = Array.make n_sessions infinity in
        List.iter
          (function
            | Churn.Join _ -> ()
            | (Churn.Leave _ | Churn.Move _ | Churn.Crash _) as e ->
              departs.(Churn.event_seq e) <- Churn.event_time e)
          trace;
        (* Live churn sessions (seq -> join time) for lookup targeting,
           touched only inside global events. *)
        let live = Hashtbl.create 64 in
        let live_arr = ref [||] and live_dirty = ref false in
        let set_live seq v =
          (match v with Some at -> Hashtbl.replace live seq at | None -> Hashtbl.remove live seq);
          live_dirty := true
        in
        List.iter
          (fun ev ->
            let seq = Churn.event_seq ev in
            let id = session_ids.(seq) in
            let action =
              match ev with
              | Churn.Join { at_ms; _ } ->
                let g = gw () in
                fun () ->
                  set_live seq (Some at_ms);
                  Proto.join proto ~gateway:g id
              | Churn.Leave _ ->
                fun () ->
                  set_live seq None;
                  ignore (Proto.leave proto id)
              | Churn.Move _ ->
                let g = gw () in
                fun () -> ignore (Proto.move proto ~new_gateway:g id)
              | Churn.Crash _ ->
                fun () ->
                  set_live seq None;
                  ignore (Proto.crash proto id)
            in
            Shard.at_global coord ~time_ms:(Churn.event_time ev) (fun () -> inject action))
          trace;
        (* Open-loop lookups at a fixed simulated rate, each to an
           identifier live at issue time.  A churn session is a target once
           it has been up for the warm-up and while it stays up for the
           lookup's whole retry budget, so a failed lookup is a protocol
           failure, not a departed target. *)
        let buckets = Array.init (Proto.shard_count proto) (fun _ -> ref []) in
        let n_lookups = int_of_float (churn_horizon_ms /. churn_lookup_gap_ms) - 1 in
        for k = 1 to n_lookups do
          let at = float_of_int k *. churn_lookup_gap_ms in
          Shard.at_global coord ~time_ms:at (fun () ->
              inject (fun () ->
                  if !live_dirty then begin
                    live_arr :=
                      Hashtbl.fold (fun seq _ acc -> seq :: acc) live []
                      |> List.sort compare |> Array.of_list;
                    live_dirty := false
                  end;
                  let nb = Array.length boot and nl = Array.length !live_arr in
                  let i = Prng.int pick (nb + nl) in
                  let target =
                    if i < nb then boot.(i)
                    else
                      let seq = !live_arr.(i - nb) in
                      match Hashtbl.find_opt live seq with
                      | Some j when j +. churn_warmup_ms <= at && departs.(seq) > at +. churn_guard_ms ->
                        session_ids.(seq)
                      | _ -> boot.(i mod nb)
                  in
                  let from = gw () in
                  let bucket = buckets.(Proto.shard_of_router proto from) in
                  Proto.lookup_async proto ~from target (fun o -> bucket := o :: !bucket)))
        done;
        (proto, gw, pick, List.length trace + n_lookups, buckets, topo_s, trace_s, create_s))
  in
  let coord = Proto.coordinator proto in
  let ev0 = Shard.executed_total coord in
  let st0 = Shard.stats coord in
  let exact = ref 0 and converged = ref false in
  let (ph_churn, ph_drain, ph_owner), run_s =
    timed (fun () ->
        Proto.start_stabilizer proto;
        let (), ph_churn =
          run_phase "churn" (fun () ->
              for _ = 1 to int_of_float (churn_horizon_ms /. churn_slice_ms) do
                Span.enter (Span.kind "netsim.run") (next_op ());
                let t0 = now () in
                Proto.run_for proto churn_slice_ms;
                Samples.add slice_lat (now () -. t0);
                Span.leave ()
              done)
        in
        let (), ph_drain =
          run_phase "drain" (fun () ->
              let deadline = Shard.now coord +. churn_drain_max_ms in
              let rec go () =
                if query (fun () -> Proto.ring_converged proto && Proto.lookups_outstanding proto = 0)
                then converged := true
                else if Shard.now coord < deadline then begin
                  Span.enter (Span.kind "netsim.run") (next_op ());
                  Proto.run_for proto cfg.Proto.stabilize_period_ms;
                  Span.leave ();
                  go ()
                end
              in
              go ();
              Proto.stop_stabilizer proto)
        in
        let (), ph_owner =
          run_phase "owner" (fun () ->
              let members = query (fun () -> Array.of_list (Proto.members proto)) in
              let from = Array.make owner_batch 0 and targets = Array.make owner_batch Id.zero in
              for _ = 1 to owner_reads / owner_batch do
                for j = 0 to owner_batch - 1 do
                  from.(j) <- gw ();
                  targets.(j) <- Prng.sample pick members
                done;
                Span.enter (Span.kind "proto.owner") (next_op ());
                let t0 = now () in
                let res = Proto.lookup_owner_batch proto ~from ~targets in
                let dt = now () -. t0 in
                Span.leave ();
                lookup_busy := !lookup_busy +. dt;
                lookup_calls := !lookup_calls + owner_batch;
                Samples.add lookup_lat (dt /. float_of_int owner_batch);
                Array.iteri
                  (fun j o ->
                    incr attempted;
                    match o with
                    | Some owner when Id.equal owner targets.(j) -> incr exact
                    | _ ->
                      incr failed;
                      check_fail "async.owner_read_inexact")
                  res
              done)
        in
        (ph_churn, ph_drain, ph_owner))
  in
  let layer_trace = trace_layers run_s in
  let live_mb = live_heap_mb (proto, buckets) in
  incr attempted;
  if not !converged then begin
    incr failed;
    check_fail "async.ring_not_converged"
  end;
  let st1 = Shard.stats coord in
  let events = Shard.executed_total coord - ev0 in
  let outcomes =
    Array.to_list buckets
    |> List.concat_map (fun b -> !b)
    |> List.map (fun (o : Proto.lookup_outcome) ->
           ( o.Proto.issued_ms, o.Proto.completed_ms, Id.to_hex o.Proto.target, o.Proto.ok,
             o.Proto.attempts ))
    |> List.sort compare
  in
  let s = Proto.stats proto in

  let n_out = List.length outcomes in
  let sim_ok = List.length (List.filter (fun (_, _, _, ok, _) -> ok) outcomes) in
  bump sim_failures "async.sim_lookup_failed" (n_out - sim_ok);
  bump sim_failures "async.sim_join_failed" s.Proto.joins_failed;
  let lat_ok =
    List.filter_map (fun (i, c, _, ok, _) -> if ok then Some (c -. i) else None) outcomes
    |> sorted_of_list
  in
  let fp = Shard.fingerprint coord in
  Digest_acc.int dg fp;
  Digest_acc.int dg (Hashtbl.hash s);
  List.iter (fun o -> Digest_acc.int dg (Hashtbl.hash o)) outcomes;
  Digest_acc.int dg !exact;
  let phases = [ ph_churn; ph_drain; ph_owner ] in
  let windows = st1.Shard.windows - st0.Shard.windows in
  let busy = Array.mapi (fun i b -> b -. st0.Shard.busy_s.(i)) st1.Shard.busy_s in
  let busy_sum = Array.fold_left ( +. ) 0.0 busy in
  let busy_max = Array.fold_left Float.max 0.0 busy in
  let stall = st1.Shard.stall_s -. st0.Shard.stall_s in
  let elapsed = st1.Shard.elapsed_s -. st0.Shard.elapsed_s in
  let sim_words = ph_churn.p_words +. ph_drain.p_words in
  let msgs = float_of_int s.Proto.messages in
  let layer =
    [
      ("topology.generate_s", topo_s);
      ("workload.trace_s", trace_s);
      ("proto.create_s", create_s);
      ("netsim.run_busy_s", Span.self "netsim.run");
      ("netsim.events", float_of_int events);
      ("netsim.events_per_busy_s", ratio (float_of_int events) busy_sum);
      ("netsim.windows", float_of_int windows);
      ("netsim.stall_s", stall);
      ("netsim.stall_share", ratio stall (elapsed *. float_of_int (Array.length busy)));
      ("netsim.shard_imbalance", ratio busy_max (busy_sum /. float_of_int (Array.length busy)));
      ("netsim.peak_pending", float_of_int (Shard.peak_global coord));
      ("netsim.words_per_window", ratio sim_words (float_of_int windows));
      ("proto.inject_busy_s", Span.self "proto.inject");
      ("proto.inject_calls", float_of_int n_injected);
      ("proto.msgs_total", msgs);
      ("proto.msgs_per_event", ratio msgs (float_of_int events));
      ("proto.msgs_per_sim_s", ratio msgs (Shard.now coord /. 1000.0));
      ("proto.stabilize_rounds", float_of_int s.Proto.stabilize_rounds);
      ("proto.failovers", float_of_int s.Proto.failovers);
      ("proto.rpc_timeouts", float_of_int s.Proto.rpc_timeouts);
      ("proto.join_retries", float_of_int s.Proto.join_retries);
      ("proto.lookup_retries", float_of_int s.Proto.lookup_retries);
      ("proto.joins_failed", float_of_int s.Proto.joins_failed);
      ("proto.lookup_ok_ratio", ratio (float_of_int sim_ok) (float_of_int n_out));
      ("proto.lookup_sim_p50_ms", quantile lat_ok 0.5);
      ("proto.lookup_sim_p99_ms", quantile lat_ok 0.99);
      ("proto.drain_s", ph_drain.p_s);
      ("proto.query_busy_s", Span.self "proto.query");
      ("proto.owner_busy_s", Span.self "proto.owner");
      ("proto.owner_words_per_lookup", ph_owner.p_words /. float_of_int owner_reads);
      ("proto.owner_exact_ratio", float_of_int !exact /. float_of_int owner_reads);
      ("gc.minor_mwords.sim", sim_words /. 1e6);
      ("sim_speed", churn_horizon_ms /. 1000.0 /. ph_churn.p_s);
    ]
    @ List.map
        (fun (c, v) -> ("proto.msgs." ^ c, float_of_int v))
        (Metrics.categories (Proto.metrics proto))
    @ phase_layers phases @ layer_trace
  in
  ( {
      setup_s;
      run_s;
      minor_mwords = phase_words phases /. 1e6;
      live_heap_mb = live_mb;
      attempted = !attempted;
      failed = !failed;
      sim_attempted = n_out + s.Proto.joins_completed + s.Proto.joins_failed;
      sim_failed = n_out - sim_ok + s.Proto.joins_failed;
      digest = dg.Digest_acc.h;
      layer;
    },
    { fingerprint = fp; stats = s; outcomes } )

(* ------------------------------------------------------------------------ *)
(* Result stamp *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* The git commit when run inside a clone, "none" in an exported tree; the
   source digest identifies the code either way. *)
let commit () =
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "none"
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let r = String.sub head 5 (String.length head - 5) in
    (match read_file (Filename.concat ".git" r) with
     | Some sha -> String.trim sha
     | None ->
       Option.bind (read_file ".git/packed-refs") (fun packed ->
           String.split_on_char '\n' packed
           |> List.find_map (fun line ->
                  match String.split_on_char ' ' line with
                  | [ sha; name ] when name = r -> Some sha
                  | _ -> None))
       |> Option.value ~default:"unknown")
  | Some sha -> sha

let source_digest () =
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" || name = "dune"
        then p :: acc
        else acc)
      acc
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  walk "lib" (walk "perfbench" [])
  |> List.sort compare
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let peak_rss_mb () =
  let vm_hwm_kb =
    Option.bind (read_file "/proc/self/status") (fun s ->
        String.split_on_char '\n' s
        |> List.find_map (fun line ->
               match String.split_on_char ':' line with
               | [ "VmHWM"; v ] ->
                 Option.bind
                   (List.nth_opt (String.split_on_char ' ' (String.trim v)) 0)
                   float_of_string_opt
               | _ -> None))
  in
  match vm_hwm_kb with
  | Some kb -> kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------------ *)
(* Main *)

(* End-to-end figures printed and kept in the result file but not in the
   JSON line: the JSON line carries the same metrics on every workload, and
   only ones steady enough to gate on.  Lookup p99 sits where the ~3 % of
   lookups that absorb a minor collection begin, so across seeds it
   spreads up to twice as widely as p95. *)
let specific_units =
  [
    ("lookup_p99_us", "us"); ("peak_rss_mb", "MB");
    ("join_per_s", "1/s"); ("join_p50_us", "us"); ("join_p99_us", "us"); ("sim_speed", "sim_s/s");
    ("slice_p50_ms", "ms"); ("slice_p99_ms", "ms");
  ]

(* The end-to-end figures of the pass that just ran.  Each run reports the
   median of these over its rounds, which keeps a burst of host noise in
   one round from moving the run's figure. *)
let pass_figures (res : round) =
  let ls = Samples.sorted lookup_lat in
  [
    ("run_s", res.run_s);
    ("lookup_per_s", ratio (float_of_int !lookup_calls) !lookup_busy);
    ("lookup_p50_us", 1e6 *. quantile ls 0.5);
    ("lookup_p95_us", 1e6 *. quantile ls 0.95);
    ("lookup_p99_us", 1e6 *. quantile ls 0.99);
    ("minor_mwords", res.minor_mwords);
    ("live_heap_mb", res.live_heap_mb);
  ]
  @ (if join_lat.Samples.n = 0 then []
     else
       let js = Samples.sorted join_lat in
       [
         ("join_per_s", 1.0 /. Samples.mean join_lat);
         ("join_p50_us", 1e6 *. quantile js 0.5);
         ("join_p99_us", 1e6 *. quantile js 0.99);
       ])
  @
  if slice_lat.Samples.n = 0 then []
  else
    let ss = Samples.sorted slice_lat in
    [
      ("sim_speed", List.assoc "sim_speed" res.layer);
      ("slice_p50_ms", 1e3 *. quantile ss 0.5);
      ("slice_p99_ms", 1e3 *. quantile ss 0.99);
    ]

(* Scaling a figure by host speed [factor] (see [Host]): times scale with
   it, rates inversely, counts not at all. *)
let host_scaled factor (name, v) =
  match name with
  | "minor_mwords" | "live_heap_mb" -> v
  | "lookup_per_s" | "join_per_s" | "sim_speed" -> v /. factor
  | _ -> v *. factor

(* Nominal host seconds of one round, with its host-speed calibration, on a
   2-core x86-64 box: --seconds becomes a fixed round count, so a seed
   always yields the same inputs. *)
let workloads = [ ("intra-fig", 2.6); ("async-churn", 3.0); ("inter-fig", 2.2) ]

let json_metrics ms =
  List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u) ms
  |> String.concat ", "

let named tbl =
  Hashtbl.fold (fun k n acc -> Printf.sprintf "%S: %d" k n :: acc) tbl [] |> String.concat ", "

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " intra-fig | async-churn | inter-fig");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measuring time; sets the round count");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics (traced)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the repository benchmark";
  let wl = !workload in
  let nominal_s =
    match List.assoc_opt wl workloads with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ wl);
      exit 2
  in
  let traced = !trace = 1 in
  let rounds = max 2 (int_of_float (Float.round (float_of_int !seconds /. nominal_s))) in
  (* A traced round makes two to four passes; the traced run makes half as
     many rounds. *)
  let rounds = if traced then max 2 (rounds / 2) else rounds in
  let nproc = Domain.recommended_domain_count () in
  let is_async = wl = "async-churn" in
  (* The timed async-churn pass runs its 2 shards on one domain: on a shared
     2-core host, 2-domain barrier timing spreads too widely to gate on.  The
     traced run adds a pass on min(2, nproc) domains for the barrier-stall
     and cross-domain allocation figures. *)
  let pool2 = if traced && is_async && nproc > 1 then Some (Pool.create ~jobs:2) else None in
  Option.iter (fun p -> ignore (Pool.map p Fun.id [ 1; 2; 3; 4 ])) pool2;
  let run_round r =
    match wl with
    | "intra-fig" -> (intra_round ~seed:!seed ~round:r, None)
    | "inter-fig" -> (inter_round ~seed:!seed ~round:r, None)
    | _ ->
      let res, out = async_round ~seed:!seed ~round:r ~shards:2 ~pool:None in
      (res, Some out)
  in
  let results = ref [] and figures = ref [] and traced_layers = ref [] and overheads = ref [] in
  (* Kernel times at round boundaries: entry r is taken just before round r
     and just after round r - 1.  The traced run reports no end-to-end
     figures, so it does not calibrate. *)
  let kernel_at = Array.make (rounds + 1) Host.reference_s in
  let calibrate i = if not traced then kernel_at.(i) <- Host.kernel_s () in
  (* The first kernel run grows the heap; later ones reuse it. *)
  if not traced then ignore (Sys.opaque_identity (Host.kernel ()));
  calibrate 0;
  for r = 0 to rounds - 1 do
    Gc.compact ();
    clear_samples ();
    let res, out = run_round r in
    calibrate (r + 1);
    let fig = pass_figures res in
    Printf.printf "# round %d kernel_s %.6f setup_s %.6f %s\n%!" r kernel_at.(r + 1)
      (median res.setup_s)
      (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s %.6g" n v) fig));
    results := res :: !results;
    figures := fig :: !figures;
    if traced then begin
      (* Same inputs again, traced: the model outputs must not move. *)
      Gc.compact ();
      Span.reset_totals ();
      Span.on := true;
      let tres, _ = run_round r in
      Span.on := false;
      overheads := ((tres.run_s -. res.run_s) /. res.run_s) :: !overheads;
      if tres.digest <> res.digest then check_fail "trace.model_outputs_differ";
      (* The byte-identical-at-any-shard-count contract, checked from
         outside: on two domains and at one shard the round must execute
         the same events, reach the same stats and see the same lookup
         outcomes as the timed pass. *)
      let pins =
        match out with
        | None -> []
        | Some o ->
          let pass ~shards ~pool =
            Gc.compact ();
            async_round ~seed:!seed ~round:r ~shards ~pool
          in
          let r2, o2 = pass ~shards:2 ~pool:pool2 in
          let r1, o1 = pass ~shards:1 ~pool:None in
          List.iter
            (fun (name, (x : churn_outputs)) ->
              if x.fingerprint <> o.fingerprint then check_fail (name ^ ".fingerprint");
              if x.stats <> o.stats then check_fail (name ^ ".proto_stats");
              if x.outcomes <> o.outcomes then check_fail (name ^ ".lookup_outcomes"))
            [ ("pin_2dom", o2); ("pin_1shard", o1) ];
          let get (x : round) n = Option.value ~default:0.0 (List.assoc_opt n x.layer) in
          [
            ("gc.minor_mwords.sim_2dom", get r2 "gc.minor_mwords.sim");
            ("gc.minor_mwords.sim_1shard", get r1 "gc.minor_mwords.sim");
            ("netsim.run_s_2dom", r2.run_s);
            ("netsim.stall_s", get r2 "netsim.stall_s");
            ("netsim.stall_share", get r2 "netsim.stall_share");
            ("netsim.shard_imbalance", get r2 "netsim.shard_imbalance");
          ]
      in
      traced_layers := (pins @ tres.layer) :: !traced_layers
    end
  done;
  Option.iter Pool.shutdown pool2;
  let results = List.rev !results in
  let total f = List.fold_left (fun a r -> a + f r) 0 results in
  let attempted = total (fun r -> r.attempted) and failed = total (fun r -> r.failed) in
  let sim_attempted = total (fun r -> r.sim_attempted) and sim_failed = total (fun r -> r.sim_failed) in
  let correct = Hashtbl.length check_failures = 0 in
  let figures = List.rev !figures in
  let factors =
    List.init rounds (fun r -> Host.reference_s /. ((kernel_at.(r) +. kernel_at.(r + 1)) /. 2.0))
  in
  (* Each figure is the median over rounds of the round's value, scaled by
     the round's host speed or not. *)
  let e2e ~scaled =
    let f factor fig = if scaled then host_scaled factor fig else snd fig in
    let setup r factor = List.map (fun v -> f factor ("setup_s", v)) r.setup_s in
    let over_rounds n =
      List.map2 (fun fig factor -> f factor (n, List.assoc n fig)) figures factors
    in
    ("setup_s", median (List.concat (List.map2 setup results factors)))
    :: ("peak_rss_mb", peak_rss_mb ())
    :: List.map (fun (n, _) -> (n, median (over_rounds n))) (List.hd figures)
  in
  let e2e_values = e2e ~scaled:true in
  let e2e_specific =
    List.filter_map
      (fun (n, u) -> Option.map (fun v -> (n, v, u)) (List.assoc_opt n e2e_values))
      specific_units
    @ [
        ( "fail_share",
          ratio (float_of_int (failed + sim_failed)) (float_of_int (attempted + sim_attempted)),
          "ratio" );
      ]
  in
  let stamp =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"rounds\": %d, \
       \"nproc\": %d, \"domains\": 1, \"traced_domains\": %d, \"shards\": %d, \"ocaml\": %S, \
       \"commit\": %S, \"source\": %S}"
      wl !seed !seconds !trace rounds nproc
      (if Option.is_some pool2 then 2 else 1)
      (if is_async then 2 else 1)
      Sys.ocaml_version (commit ()) (source_digest ())
  in
  let metrics =
    if not traced then List.map (fun (n, u) -> (n, List.assoc n e2e_values, u)) end_to_end
    else
      let value n =
        median
          (List.map (fun l -> Option.value ~default:0.0 (List.assoc_opt n l)) !traced_layers)
      in
      List.map
        (fun (n, u) ->
          let v =
            match n with
            | "trace.overhead" -> median !overheads
            | "trace.spans" -> float_of_int !Span.b_len
            | "trace.spans_dropped" -> float_of_int !Span.dropped
            | _ -> value n
          in
          (n, v, u))
        per_layer
  in
  Printf.printf "# stamp %s\n" stamp;
  Hashtbl.iter (fun name n -> Printf.printf "# check-failure %s %d\n" name n) check_failures;
  Hashtbl.iter (fun name n -> Printf.printf "# sim-failure %s %d\n" name n) sim_failures;
  Printf.printf "# attempted=%d failed=%d simulated_attempted=%d simulated_failed=%d\n" attempted
    failed sim_attempted sim_failed;
  let printed = if traced then metrics else metrics @ e2e_specific in
  List.iter (fun (n, v, u) -> Printf.printf "# %-34s %16.6f %s\n" n v u) printed;
  if not traced then begin
    Printf.printf "# host kernel_s median %.6f (reference %.6f)\n"
      (median (Array.to_list kernel_at)) Host.reference_s;
    List.iter (fun (n, v) -> Printf.printf "# unscaled %-25s %16.6f\n" n v) (e2e ~scaled:false)
  end;
  let dir = Filename.concat "_build" "perfbench" in
  List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ()) [ "_build"; dir ];
  let base = Printf.sprintf "%s-%d-trace%d" wl !seed !trace in
  if traced then Span.write (Filename.concat dir ("spans-" ^ base ^ ".tsv"));
  let oc = open_out (Filename.concat dir ("result-" ^ base ^ ".json")) in
  Printf.fprintf oc
    "{\"stamp\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"check_failures\": \
     {%s}, \"sim_failures\": {%s}, \"metrics\": {%s}}\n"
    stamp correct attempted failed (named check_failures) (named sim_failures)
    (json_metrics printed);
  close_out oc;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (json_metrics metrics)
