(* The α-branch owner walk ([Proto.walk_owner]): at α=1 it must reproduce
   the recorded sequential batch-walk golden and the per-lookup
   [lookup_owner] reference, both must give the verdict of an independent
   recursive model of the walk, any α must agree with the sequential verdict
   on first success, a lookup's results must not depend on the lookups
   walked before it (the walk is pure-read), α < 1 is rejected at every
   entry point, and the network-size estimator feeding the self-tuner must
   land near the true membership at several ring sizes. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Sha256 = Rofl_crypto.Sha256
module Proto = Rofl_proto.Proto

let spread_id k =
  Id.of_bytes_exn (String.sub (Sha256.digest (Printf.sprintf "a:%d" k)) 0 16)

(* A small actor ring; [crash] leaves tables mid-repair so stale pointers
   and settle paths are live (the walk is pure-read either way), and
   [pcache] gives every router a pointer cache, which seeds α > 1 branches. *)
let build_proto ?(seed = 41) ?(n = 30) ?(joins = 25) ?(crash = false) ?(pcache = 0)
    ?(draw = Id.random) () =
  let topo = Gen.waxman (Prng.create seed) ~n ~alpha:0.4 ~beta:0.2 in
  let cfg = { Proto.default_config with pcache_capacity = pcache } in
  let t = Proto.create ~rng:(Prng.create seed) ~cfg topo in
  let rng = Prng.create (seed + 1) in
  let joined = ref 0 in
  while !joined < joins do
    Proto.join t ~gateway:(Prng.int rng n) (draw rng);
    incr joined
  done;
  ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
  let members = Array.of_list (Proto.members t) in
  if crash then begin
    ignore (Proto.crash t members.(Array.length members / 2));
    Proto.run_for t 40.0
  end;
  (t, members, n)

let lookup_set ~n ~count members =
  let from = Array.init count (fun k -> (7 * k) mod n) in
  let targets =
    Array.init count (fun k ->
        if k mod 3 = 0 then spread_id (500 + k)
        else members.(k * 3 mod Array.length members))
  in
  (from, targets)

(* ---- reference model: the recursive owner walk --------------------------

   The owner walk as written before [lookup_owner] and [walk_owner] shared
   one keyed step: a recursive walk over a snapshot of the resident tables
   ([Proto.residents_view]) with full 128-bit comparisons only.  A router
   ranks its residents and their successor pointers to other routers,
   keeping the first strictly closest; a hop must beat the previous hop's
   winner (at first, the cleared horizon [succ target]); else the walk
   settles on the best local resident.  Residents are visited in identifier
   order rather than the store's chain order: the two differ only on equal
   identifiers held for different routers, which needs a moved identifier,
   and the property below draws no moves. *)
module Model = struct
  let by_router t ~n =
    let rs = Array.make n [] in
    List.iter
      (fun (v : Proto.resident_view) -> rs.(v.v_router) <- v :: rs.(v.v_router))
      (List.rev (Proto.residents_view t));
    rs

  let closer ~target id = function
    | Some (best, _) -> Id.closer_clockwise ~target id best
    | None -> true

  let rank rs ~router ~target =
    List.fold_left
      (fun best (v : Proto.resident_view) ->
        let best = if closer ~target v.v_id best then Some (v.v_id, router) else best in
        match v.v_succ with
        | Some (sid, sr) when sr <> router && closer ~target sid best -> Some (sid, sr)
        | _ -> best)
      None rs.(router)

  let best_resident rs ~router ~target =
    List.fold_left
      (fun best (v : Proto.resident_view) ->
        if closer ~target v.v_id best then Some (v.v_id, router) else best)
      None rs.(router)
    |> Option.map fst

  let lookup_owner rs ~from target =
    let rec walk router horizon guard =
      if guard > 4 * Array.length rs then None
      else
        match rank rs ~router ~target with
        | None -> None
        | Some (id, host) when host = router -> Some id
        | Some (id, host) ->
          let progress =
            match horizon with
            | Some best -> Id.closer_clockwise ~target id best
            | None -> Id.compare_dist id target Id.zero (Id.pred_id Id.zero) < 0
          in
          if progress then walk host (Some id) (guard + 1)
          else best_resident rs ~router ~target
    in
    walk from None 0
end

(* Dense identifiers: high words from a few runs of 8 (at zero, below the
   top and mid-ring), so keys tie or sit 1-2 apart and the walk's keyed
   comparisons fall back to full ones; a third are uniform. *)
let dense_id rng =
  if Prng.int rng 3 = 0 then Id.random rng
  else begin
    let base = [| 0L; -8L; 0x4000_0000_0000_0000L |].(Prng.int rng 3) in
    let lo = if Prng.bool rng then Int64.of_int (Prng.int rng 64) else Prng.bits64 rng in
    Id.of_int64_pair (Int64.add base (Int64.of_int (Prng.int rng 8))) lo
  end

let qcheck_owner_walks_match_model =
  QCheck.Test.make ~count:25 ~name:"lookup_owner and walk_owner at alpha=1 = recursive model"
    QCheck.(pair (int_range 1 100_000) (int_range 10 60))
    (fun (seed, count) ->
      let seen = Hashtbl.create 64 in
      let rec draw rng =
        let id = dense_id rng in
        if Hashtbl.mem seen id then draw rng else (Hashtbl.add seen id (); id)
      in
      let t, members, n =
        build_proto ~seed ~n:(12 + (seed mod 13)) ~joins:(10 + (seed mod 17))
          ~crash:(seed mod 2 = 0) ~draw ()
      in
      let rs = Model.by_router t ~n in
      let rng = Prng.create (seed + 7) in
      let w = Proto.owner_walk ~alpha:1 in
      for k = 0 to count - 1 do
        let from = Prng.int rng n in
        let target =
          match Prng.int rng 3 with
          | 0 -> dense_id rng
          | 1 -> members.(Prng.int rng (Array.length members))
          | _ ->
            let m = members.(Prng.int rng (Array.length members)) in
            if Prng.bool rng then Id.succ_id m else Id.pred_id m
        in
        let show = function Some id -> Id.to_hex id | None -> "none" in
        let want = Model.lookup_owner rs ~from target in
        let got = Proto.lookup_owner t ~from target in
        Proto.walk_owner t w ~from ~target;
        let walked = if w.w_winner >= 0 then Some w.w_owner else None in
        if not (Option.equal Id.equal want got && Option.equal Id.equal want walked) then
          QCheck.Test.fail_reportf "#%d from %d to %s: model %s, lookup_owner %s, walk_owner %s"
            k from (Id.to_hex target) (show want) (show got) (show walked)
      done;
      true)

(* ---- goldens of the sequential batch walk (see {!Owner_golden}) ---------- *)

let test_alpha_goldens () =
  let t, from, targets = Owner_golden.ring () in
  List.iter
    (fun (alpha, expect) ->
      Alcotest.(check string) (Printf.sprintf "alpha=%d golden" alpha) expect
        (Owner_golden.summary t ~alpha ~from ~targets))
    Owner_golden.expected;
  let w = Proto.owner_walk ~alpha:1 in
  Array.iteri
    (fun i f ->
      Proto.walk_owner t w ~from:f ~target:targets.(i);
      Alcotest.(check int) (Printf.sprintf "#%d branches" i) 1 w.w_branches;
      match Proto.lookup_owner t ~from:f targets.(i) with
      | Some owner ->
        Alcotest.(check bool)
          (Printf.sprintf "#%d owner = lookup_owner" i)
          true
          (w.w_winner >= 0 && Id.equal owner w.w_owner);
        Alcotest.(check int) (Printf.sprintf "#%d winner" i) 0 w.w_winner
      | None -> Alcotest.(check int) (Printf.sprintf "#%d unresolved" i) (-1) w.w_winner)
    from

(* ---- first-success verdict equality at any α ----------------------------- *)

let test_any_alpha_verdict_eq_sequential () =
  let t, members, n = build_proto () in
  let from, targets = lookup_set ~n ~count:40 members in
  List.iter
    (fun alpha ->
      let w = Proto.owner_walk ~alpha in
      Array.iteri
        (fun i f ->
          Proto.walk_owner t w ~from:f ~target:targets.(i);
          let label = Printf.sprintf "alpha=%d #%d" alpha i in
          (match Proto.lookup_owner t ~from:f targets.(i) with
           | Some owner ->
             Alcotest.(check bool) (label ^ " resolved") true (w.w_winner >= 0);
             Alcotest.(check bool) (label ^ " same owner") true (Id.equal owner w.w_owner)
           | None -> Alcotest.(check int) (label ^ " unresolved") (-1) w.w_winner);
          let b = w.w_branches in
          Alcotest.(check bool)
            (Printf.sprintf "%s 1 <= branches=%d <= alpha" label b)
            true
            (b >= 1 && b <= alpha);
          Alcotest.(check bool)
            (Printf.sprintf "%s winner %d in range" label w.w_winner)
            true (w.w_winner < b))
        from)
    [ 2; 3; 4 ]

(* ---- QCheck: a lookup's results do not depend on the walks before it ----- *)

(* Everything the walk reports for its last lookup, the latency bit for bit. *)
let results (w : Proto.owner_walk) =
  let c = Proto.charged w in
  ( (if w.w_winner >= 0 then Id.to_hex w.w_owner else "-"),
    (if w.w_winner >= 0 then w.w_router.(w.w_winner) else -1),
    w.w_winner,
    w.w_branches,
    (w.w_hops.(c), w.w_link_hops.(c)),
    (w.w_wasted_hops, w.w_wasted_link_hops, w.w_cancelled),
    Int64.bits_of_float w.w_latency_ms.(c) )

let qcheck_walk_order_free =
  QCheck.Test.make ~count:10 ~name:"results independent of walk order"
    QCheck.(triple (int_range 1 1000) (int_range 1 5) (int_range 1 33))
    (fun (seed, alpha, count) ->
      let t, members, n =
        build_proto ~seed ~n:(16 + (seed mod 9)) ~joins:(12 + (seed mod 7))
          ~crash:(seed mod 2 = 0) ~pcache:8 ()
      in
      let from, targets = lookup_set ~n ~count members in
      let perm = Array.init count Fun.id in
      Prng.shuffle (Prng.create (seed + 3)) perm;
      (* both orders through one set of registers *)
      let w = Proto.owner_walk ~alpha in
      let run order =
        Array.map
          (fun k ->
            Proto.walk_owner t w ~from:from.(k) ~target:targets.(k);
            results w)
          order
      in
      let plain = run (Array.init count Fun.id) in
      let permuted = run perm in
      Array.iteri
        (fun p k ->
          let _, _, _, b, _, _, _ = permuted.(p) in
          if b < 1 || b > alpha then
            QCheck.Test.fail_reportf "lookup %d seeded %d branches (alpha=%d)" k b alpha;
          if permuted.(p) <> plain.(k) then
            QCheck.Test.fail_reportf "lookup %d differs at walk position %d (alpha=%d)"
              k p alpha)
        perm;
      true)

(* ---- the walk against the sequential reference, mid-repair --------------- *)

let test_alpha1_eq_lookup_owner_mid_repair () =
  let t, members, n = build_proto ~seed:42 ~crash:true () in
  let from, targets = lookup_set ~n ~count:40 members in
  let w = Proto.owner_walk ~alpha:1 in
  Array.iteri
    (fun k f ->
      Proto.walk_owner t w ~from:f ~target:targets.(k);
      Alcotest.(check bool)
        (Printf.sprintf "proto#%d owner agrees" k)
        true
        (match Proto.lookup_owner t ~from:f targets.(k) with
         | Some owner -> w.w_winner >= 0 && Id.equal owner w.w_owner
         | None -> w.w_winner < 0))
    from

let test_empty_batch () =
  let t, _, _ = build_proto ~joins:8 () in
  Alcotest.(check int) "lookup_owner_batch" 0
    (Array.length (Proto.lookup_owner_batch t ~from:[||] ~targets:[||]))

let test_alpha_below_one_rejected () =
  let topo = Gen.waxman (Prng.create 3) ~n:8 ~alpha:0.4 ~beta:0.2 in
  List.iter
    (fun alpha ->
      let raises label f =
        match f () with
        | _ -> Alcotest.failf "%s accepted alpha=%d" label alpha
        | exception Invalid_argument _ -> ()
      in
      raises "Proto.owner_walk" (fun () -> ignore (Proto.owner_walk ~alpha));
      raises "Proto.create" (fun () ->
          ignore
            (Proto.create ~rng:(Prng.create 3)
               ~cfg:{ Proto.default_config with lookup_alpha = alpha }
               topo)))
    [ 0; -3 ]

(* ---- network-size estimation accuracy ------------------------------------ *)

(* The estimator feeds the self-tuner through its median (per-node samples
   are Erlang-noisy, individual nodes off by 8x are expected), so the pin
   is on the median: within factor 2 of the true membership once the ring
   has stabilised its successor lists. *)
let test_estimate_n_accuracy () =
  let topo = Gen.waxman (Prng.create 17) ~n:20 ~alpha:0.4 ~beta:0.2 in
  List.iter
    (fun hosts ->
      let t =
        Proto.create ~rng:(Prng.create 17) ~bootstrap_hosts:hosts topo
      in
      ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
      let actual = float_of_int (List.length (Proto.members t)) in
      let nhat = Proto.estimate_n t in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: estimate %.0f within factor 2 of %.0f" hosts nhat
           actual)
        true
        (nhat >= actual /. 2.0 && nhat <= actual *. 2.0))
    [ 100; 1000; 5000 ]

let () =
  Alcotest.run "alpha"
    [
      ( "engine",
        [
          Alcotest.test_case "alpha=1 byte-identical to sequential batch golden"
            `Slow test_alpha_goldens;
          Alcotest.test_case "any alpha: first-success verdict = sequential" `Slow
            test_any_alpha_verdict_eq_sequential;
          QCheck_alcotest.to_alcotest qcheck_walk_order_free;
        ] );
      ( "proto",
        [
          Alcotest.test_case "alpha=1 = lookup_owner mid-repair" `Slow
            test_alpha1_eq_lookup_owner_mid_repair;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "alpha < 1 rejected" `Quick test_alpha_below_one_rejected;
          QCheck_alcotest.to_alcotest qcheck_owner_walks_match_model;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "size estimate within factor 2 at 3 ring sizes" `Slow
            test_estimate_n_accuracy;
        ] );
    ]
