(* Model-based testing of Rofl_util.Lru against a naive assoc-list
   reference, plus Pointer_cache's recency-list/ring-index agreement audit
   and its own LRU model under random workloads.  Pointer caches sit on the
   hot lookup path, so a recency or eviction bug here quietly reshapes
   stretch numbers everywhere — worth a real model, not just point tests. *)

module Lru = Rofl_util.Lru
module Prng = Rofl_util.Prng
module Id = Rofl_idspace.Id
module Pointer = Rofl_core.Pointer
module Sourceroute = Rofl_core.Sourceroute
module Pointer_cache = Rofl_core.Pointer_cache
module Metrics = Rofl_netsim.Metrics
module Resolver = Rofl_services.Resolver

(* ---- reference model: assoc list, most-recently-used first ------------- *)

type model = { m_cap : int; mutable entries : (int * int) list }

let m_put m k v =
  if m.m_cap = 0 then Some (k, v)
  else if List.mem_assoc k m.entries then begin
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    None
  end
  else begin
    let evicted =
      if List.length m.entries >= m.m_cap then begin
        let rec split = function
          | [ last ] -> ([], Some last)
          | x :: rest ->
            let kept, last = split rest in
            (x :: kept, last)
          | [] -> ([], None)
        in
        let kept, last = split m.entries in
        m.entries <- kept;
        last
      end
      else None
    in
    m.entries <- (k, v) :: m.entries;
    evicted
  end

let m_find m k =
  match List.assoc_opt k m.entries with
  | Some v ->
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    Some v
  | None -> None

(* ---- operations --------------------------------------------------------- *)

type op =
  | Put of int * int
  | Find of int
  | Remove of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Put (k, v)) (int_bound 7) (int_bound 99));
        (3, map (fun k -> Find k) (int_bound 7));
        (2, map (fun k -> Remove k) (int_bound 7));
      ])

let op_print = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

(* Apply one op to both; false on any observable disagreement. *)
let step c m op =
  match op with
  | Put (k, v) -> Lru.put c k v = m_put m k v
  | Find k -> Lru.find c k = m_find m k
  | Remove k ->
    Lru.remove c k;
    m.entries <- List.remove_assoc k m.entries;
    true

(* Each case draws its capacity from 0..5, so the zero-capacity bounce is
   modelled too.  The case ends with [cap] puts of fresh keys: they evict
   every surviving entry, least recently used first, so the final contents
   and their recency order are compared through the evictions. *)
let prop_lru_matches_model =
  QCheck.Test.make ~name:"Lru agrees with the assoc-list model" ~count:500
    QCheck.(pair (int_bound 5) ops_arb)
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      let m = { m_cap = cap; entries = [] } in
      let drain = List.init cap (fun i -> Put (100 + i, 0)) in
      List.for_all
        (fun op -> step c m op && Lru.length c = List.length m.entries)
        (ops @ drain))

(* ---- Pointer_cache: recency list and ring index stay in agreement ------ *)

let ptr rng =
  let router = Prng.int rng 32 in
  Pointer.make Pointer.Cached ~dst:(Id.random rng) ~dst_router:router
    ~route:(Sourceroute.singleton router) ~start:0

let prop_pointer_cache_agreement =
  QCheck.Test.make ~name:"Pointer_cache audit stays clean under churned workloads"
    ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Prng.create seed in
      let cache = Pointer_cache.create ~capacity:8 in
      let inserted = ref [] in
      for _ = 1 to 200 do
        match Prng.int rng 6 with
        | 0 | 1 | 2 ->
          let p = ptr rng in
          inserted := p.Pointer.dst :: !inserted;
          Pointer_cache.insert cache p
        | 3 ->
          (match !inserted with
           | [] -> ()
           | ids -> ignore (Pointer_cache.find cache (List.nth ids (Prng.int rng (List.length ids)))))
        | 4 ->
          (match !inserted with
           | [] -> ()
           | ids -> Pointer_cache.remove cache (List.nth ids (Prng.int rng (List.length ids))))
        | _ ->
          ignore
            (Pointer_cache.best_match cache ~cur:(Id.random rng) ~target:(Id.random rng))
      done;
      Pointer_cache.audit cache = [])

(* ---- Pointer_cache vs a brute-force model ------------------------------- *)

(* The model is the cache's contents, most-recently-used first, as
   (identifier, dst_router) pairs; [best_match] is answered by scanning it
   for the identifier in (cur, target] closest to target.  Identifiers come
   from a dense pool: a few [hi] words whose [Id.key] coincides (the key
   drops the low two bits of [hi]) crossed with a few [lo] words, including
   the ring's wrap point, so key ties and the cyclic predecessor both get
   exercised. *)

let dense_ids =
  let his = [ 0L; 1L; 3L; 4L; -4L; -1L ] and los = [ 0L; 1L; 5L; Int64.min_int; -1L ] in
  Array.of_list
    (List.concat_map (fun hi -> List.map (fun lo -> Id.of_int64_pair hi lo) los) his)

type cop =
  | C_insert of int * int
  | C_find of int
  | C_best of int * int  (** cur, target *)
  | C_remove of int
  | C_drop_odd
  | C_clear

let cop_gen =
  let idx = QCheck.Gen.int_bound (Array.length dense_ids - 1) in
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun i r -> C_insert (i, r)) idx (int_bound 9));
        (2, map (fun i -> C_find i) idx);
        (6, map2 (fun c t -> C_best (c, t)) idx idx);
        (2, map (fun i -> C_remove i) idx);
        (1, return C_drop_odd);
        (1, return C_clear);
      ])

let cop_print = function
  | C_insert (i, r) -> Printf.sprintf "insert %d@%d" i r
  | C_find i -> Printf.sprintf "find %d" i
  | C_best (c, t) -> Printf.sprintf "best cur=%d target=%d" c t
  | C_remove i -> Printf.sprintf "remove %d" i
  | C_drop_odd -> "drop-odd"
  | C_clear -> "clear"

let cops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map cop_print ops))
    QCheck.Gen.(list_size (int_bound 120) cop_gen)

let cptr id router =
  Pointer.make Pointer.Cached ~dst:id ~dst_router:router ~route:(Sourceroute.singleton router)
    ~start:0

let model_best entries ~cur ~target =
  List.fold_left
    (fun acc (id, r) ->
      if not (Id.between_incl cur id target) then acc
      else
        match acc with
        | Some (bid, _) when Id.compare (Id.distance id target) (Id.distance bid target) >= 0 ->
          acc
        | Some _ | None -> Some (id, r))
    None entries

let cache_contents c =
  let acc = ref [] in
  Pointer_cache.iter c (fun p -> acc := (p.Pointer.dst, p.Pointer.dst_router) :: !acc);
  List.rev !acc

let touch m id =
  match List.assoc_opt id !m with
  | Some r -> m := (id, r) :: List.remove_assoc id !m
  | None -> ()

let pointer_cache_step c cap m op =
  let as_pair = Option.map (fun (p : Pointer.t) -> (p.Pointer.dst, p.Pointer.dst_router)) in
  match op with
  | C_insert (i, r) ->
    let id = dense_ids.(i) in
    Pointer_cache.insert c (cptr id r);
    if cap > 0 then begin
      let rest = List.remove_assoc id !m in
      let rest =
        if List.length rest >= cap then List.filteri (fun j _ -> j < cap - 1) rest else rest
      in
      m := (id, r) :: rest
    end;
    true
  | C_find i ->
    let id = dense_ids.(i) in
    let want = Option.map (fun r -> (id, r)) (List.assoc_opt id !m) in
    touch m id;
    as_pair (Pointer_cache.find c id) = want
  | C_best (ci, ti) ->
    let cur = dense_ids.(ci) and target = dense_ids.(ti) in
    let want = model_best !m ~cur ~target in
    Option.iter (fun (id, _) -> touch m id) want;
    let p = Pointer_cache.best_match c ~cur ~target in
    as_pair (if p == Pointer.placeholder then None else Some p) = want
  | C_remove i ->
    Pointer_cache.remove c dense_ids.(i);
    m := List.remove_assoc dense_ids.(i) !m;
    true
  | C_drop_odd ->
    let dropped = Pointer_cache.drop_if c (fun p -> p.Pointer.dst_router mod 2 = 1) in
    let kept = List.filter (fun (_, r) -> r mod 2 = 0) !m in
    let want = List.length !m - List.length kept in
    m := kept;
    dropped = want
  | C_clear ->
    Pointer_cache.clear c;
    m := [];
    true

(* From capacity 6, and from capacity 0, where every insert must be a
   no-op. *)
let pointer_cache_matches_model ~name ~capacity =
  QCheck.Test.make ~name ~count:500
    cops_arb (fun ops ->
      let c = Pointer_cache.create ~capacity in
      let m = ref [] in
      List.for_all
        (fun op ->
          pointer_cache_step c capacity m op
          && Pointer_cache.audit c = []
          && cache_contents c = !m)
        ops)

let prop_pointer_cache_matches_model =
  pointer_cache_matches_model ~name:"Pointer_cache agrees with a brute-force ring model"
    ~capacity:6

let prop_pointer_cache_matches_model_from_zero =
  pointer_cache_matches_model
    ~name:"Pointer_cache from capacity 0 agrees with the ring model" ~capacity:0

(* ---- Resolver cache: LRU + TTL + negative entries vs a model ------------ *)

(* The resolver cache layers TTL decay and negative entries on the LRU; the
   model is an assoc list (MRU first) of (key, (positive?, fresh_until)).
   Time only moves forward, one step per op, so every entry decays on a
   schedule the model can replay exactly.  serve_stale is off here: a
   decayed entry must read as a miss and be dropped on sight. *)

type rop = Install of int * bool | Consult of int

let rop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k pos -> Install (k, pos)) (int_bound 7) bool);
        (5, map (fun k -> Consult k) (int_bound 7));
      ])

let rop_print = function
  | Install (k, pos) -> Printf.sprintf "install %d %s" k (if pos then "pos" else "neg")
  | Consult k -> Printf.sprintf "find %d" k

let rops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map rop_print ops))
    QCheck.Gen.(list_size (int_bound 80) rop_gen)

let resolver_cfg =
  {
    Resolver.default_config with
    Resolver.capacity = 3;
    cache_ttl_ms = 1_000.0;
    neg_ttl_ms = 500.0;
  }

let prop_resolver_matches_model =
  QCheck.Test.make ~name:"Resolver cache agrees with the TTL'd LRU model" ~count:500
    rops_arb (fun ops ->
      let metrics = Metrics.create ~routers:1 in
      let r = Resolver.create ~metrics resolver_cfg in
      let keys = Array.init 8 (fun k -> Id.random (Prng.create (k + 1))) in
      (* model: assoc list MRU-first of (key index, (positive, fresh_until)) *)
      let m = ref [] in
      let m_install k pos now =
        let ttl = if pos then resolver_cfg.Resolver.cache_ttl_ms else resolver_cfg.Resolver.neg_ttl_ms in
        m := (k, (pos, now +. ttl)) :: List.remove_assoc k !m;
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        m := take resolver_cfg.Resolver.capacity !m
      in
      let m_find k now =
        match List.assoc_opt k !m with
        | None -> None
        | Some (pos, fresh_until) ->
          if now < fresh_until then begin
            m := (k, (pos, fresh_until)) :: List.remove_assoc k !m;
            Some pos
          end
          else begin
            (* decayed: dropped on sight, reads as a miss *)
            m := List.remove_assoc k !m;
            None
          end
      in
      List.for_all
        (fun (i, op) ->
          let now = float_of_int i *. 300.0 in
          match op with
          | Install (k, pos) ->
            Resolver.install r ~now keys.(k) (if pos then [| keys.(k) |] else [||]);
            m_install k pos now;
            Resolver.length r = List.length !m
          | Consult k ->
            let got =
              match Resolver.find r ~now keys.(k) with
              | None -> None
              | Some e -> Some (e.Resolver.providers <> [||])
            in
            got = m_find k now && Resolver.length r = List.length !m)
        (List.mapi (fun i op -> (i, op)) ops)
      && Resolver.served_expired r = 0)

let () =
  Alcotest.run "rofl_lru_model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
          QCheck_alcotest.to_alcotest prop_pointer_cache_agreement;
          QCheck_alcotest.to_alcotest prop_pointer_cache_matches_model;
          QCheck_alcotest.to_alcotest prop_pointer_cache_matches_model_from_zero;
          QCheck_alcotest.to_alcotest prop_resolver_matches_model;
        ] );
    ]
