(* Tests for the flat-label arithmetic (Id) and the ordered ring view
   (Ring) — the correctness core of greedy routing. *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng

let id_testable = Alcotest.testable (fun ppf id -> Id.pp ppf id) Id.equal

let id i = Id.of_int i

let rng = Prng.create 2024

let arb_id =
  QCheck.make
    ~print:(fun i -> Id.to_hex i)
    (QCheck.Gen.map2
       (fun hi lo -> Id.of_int64_pair hi lo)
       (QCheck.Gen.map Int64.of_int QCheck.Gen.int)
       (QCheck.Gen.map Int64.of_int QCheck.Gen.int))

(* ---------- Id basics ---------- *)

(* All ones: the identifier immediately counter-clockwise of zero. *)
let max_id = Id.of_int64_pair (-1L) (-1L)

let test_zero_max () =
  Alcotest.check id_testable "succ max = zero" Id.zero (Id.succ_id max_id);
  Alcotest.check id_testable "pred zero = max" max_id (Id.pred_id Id.zero)

let test_add_sub_roundtrip () =
  for _ = 1 to 200 do
    let a = Id.random rng and b = Id.random rng in
    Alcotest.check id_testable "a+b-b = a" a (Id.sub (Id.add a b) b)
  done

let test_distance_zero () =
  let a = Id.random rng in
  Alcotest.check id_testable "d(a,a)=0" Id.zero (Id.distance a a)

let test_distance_asymmetry () =
  (* d(a,b) + d(b,a) = 2^128 = 0 mod ring, for a <> b. *)
  for _ = 1 to 100 do
    let a = Id.random rng and b = Id.random rng in
    if not (Id.equal a b) then
      Alcotest.check id_testable "d(a,b)+d(b,a)=0" Id.zero
        (Id.add (Id.distance a b) (Id.distance b a))
  done

let test_distance_small () =
  Alcotest.check id_testable "d(3,10)=7" (id 7) (Id.distance (id 3) (id 10));
  (* Wrap: d(10,3) = 2^128 - 7. *)
  Alcotest.check id_testable "d(10,3) wraps" (Id.sub Id.zero (id 7))
    (Id.distance (id 10) (id 3))

let test_between_basic () =
  Alcotest.(check bool) "5 in (3,10)" true (Id.between (id 3) (id 5) (id 10));
  Alcotest.(check bool) "3 not in (3,10)" false (Id.between (id 3) (id 3) (id 10));
  Alcotest.(check bool) "10 not in (3,10)" false (Id.between (id 3) (id 10) (id 10));
  Alcotest.(check bool) "11 not in (3,10)" false (Id.between (id 3) (id 11) (id 10))

let test_between_wraparound () =
  let near_max = Id.pred_id max_id in
  Alcotest.(check bool) "max in (near_max, 5)" true
    (Id.between near_max max_id (id 5));
  Alcotest.(check bool) "2 in (near_max, 5)" true (Id.between near_max (id 2) (id 5));
  Alcotest.(check bool) "7 not in (near_max, 5)" false (Id.between near_max (id 7) (id 5))

let test_between_incl () =
  Alcotest.(check bool) "10 in (3,10]" true (Id.between_incl (id 3) (id 10) (id 10));
  Alcotest.(check bool) "3 not in (3,10]" false (Id.between_incl (id 3) (id 3) (id 10));
  Alcotest.(check bool) "degenerate interval is full ring" true
    (Id.between_incl (id 3) (id 99) (id 3))

let test_closer_clockwise () =
  Alcotest.(check bool) "9 closer to 10 than 5" true
    (Id.closer_clockwise ~target:(id 10) (id 9) (id 5));
  Alcotest.(check bool) "5 not closer than 9" false
    (Id.closer_clockwise ~target:(id 10) (id 5) (id 9))

let test_bits_digits () =
  let x = Id.of_int64_pair 0x8000000000000000L 1L in
  Alcotest.(check int) "top bit" 1 (Id.bit x 0);
  Alcotest.(check int) "second bit" 0 (Id.bit x 1);
  Alcotest.(check int) "last bit" 1 (Id.bit x 127)

let test_bytes_roundtrip () =
  for _ = 1 to 100 do
    let a = Id.random rng in
    Alcotest.check id_testable "bytes roundtrip" a (Id.of_bytes_exn (Id.to_bytes a))
  done

let test_bad_inputs () =
  Alcotest.check_raises "short bytes" (Invalid_argument "Id.of_bytes_exn: need 16 bytes")
    (fun () -> ignore (Id.of_bytes_exn "abc"));
  Alcotest.check_raises "negative int" (Invalid_argument "Id.of_int: negative") (fun () ->
      ignore (Id.of_int (-1)))

let test_compare_unsigned () =
  (* Ids with the top bit set sort above those without (unsigned order). *)
  let small = Id.of_int64_pair 1L 0L and big = Id.of_int64_pair Int64.min_int 0L in
  Alcotest.(check bool) "unsigned order" true (Id.compare small big < 0)

let test_hex_rendering () =
  let x = Id.of_int64_pair 0x0123456789abcdefL (-1L) in
  Alcotest.(check string) "32 lowercase digits, high word first"
    "0123456789abcdefffffffffffffffff" (Id.to_hex x);
  Alcotest.(check string) "short form is the first 8 digits" "01234567"
    (Id.to_short_string x);
  Alcotest.(check string) "zero is padded" (String.make 32 '0') (Id.to_hex Id.zero)

let prop_compare_dist =
  QCheck.Test.make ~name:"compare_dist agrees with compare of distances" ~count:500
    QCheck.(pair (pair arb_id arb_id) (pair arb_id arb_id))
    (fun ((a, b), (c, d)) ->
      let sign x = compare x 0 in
      sign (Id.compare_dist a b c d)
      = sign (Id.compare (Id.distance a b) (Id.distance c d))
      && Id.compare_dist a b a b = 0)

let prop_between_distance =
  QCheck.Test.make ~name:"between a x b iff 0 < d(a,x) < d(a,b)" ~count:500
    QCheck.(triple arb_id arb_id arb_id)
    (fun (a, x, b) ->
      QCheck.assume (not (Id.equal a b));
      let lhs = Id.between a x b in
      let dx = Id.distance a x and db = Id.distance a b in
      let rhs = Id.compare dx Id.zero > 0 && Id.compare dx db < 0 in
      lhs = rhs)

let prop_succ_pred_inverse =
  QCheck.Test.make ~name:"pred (succ x) = x" ~count:500 arb_id (fun x ->
      Id.equal x (Id.pred_id (Id.succ_id x)))

let prop_distance_triangle_on_ring =
  QCheck.Test.make ~name:"d(a,c) = d(a,b) + d(b,c) mod 2^128" ~count:500
    QCheck.(triple arb_id arb_id arb_id)
    (fun (a, b, c) ->
      Id.equal (Id.distance a c) (Id.add (Id.distance a b) (Id.distance b c)))

(* ---------- Ring ---------- *)

let of_list l =
  let r = Ring.create () in
  List.iter (fun (k, v) -> Ring.add k v r) l;
  r

let ring_of ids = of_list (List.map (fun i -> (id i, i)) ids)

let test_ring_successor () =
  let r = ring_of [ 10; 20; 30 ] in
  let got = Ring.successor (id 10) r in
  Alcotest.(check (option int)) "succ 10 = 20" (Some 20) (Option.map snd got);
  let wrap = Ring.successor (id 30) r in
  Alcotest.(check (option int)) "succ 30 wraps to 10" (Some 10) (Option.map snd wrap);
  let between = Ring.successor (id 15) r in
  Alcotest.(check (option int)) "succ 15 = 20" (Some 20) (Option.map snd between)

let test_ring_successor_incl () =
  let r = ring_of [ 10; 20 ] in
  Alcotest.(check (option int)) "incl hits member" (Some 10)
    (Option.map snd (Ring.successor_incl (id 10) r));
  Alcotest.(check (option int)) "strict skips member" (Some 20)
    (Option.map snd (Ring.successor (id 10) r))

let test_ring_predecessor () =
  let r = ring_of [ 10; 20; 30 ] in
  Alcotest.(check (option int)) "pred 20 = 10" (Some 10)
    (Option.map snd (Ring.predecessor (id 20) r));
  Alcotest.(check (option int)) "pred 10 wraps to 30" (Some 30)
    (Option.map snd (Ring.predecessor (id 10) r))

let test_ring_singleton () =
  let r = ring_of [ 5 ] in
  Alcotest.(check (option int)) "succ of self" (Some 5)
    (Option.map snd (Ring.successor (id 5) r));
  Alcotest.(check (option int)) "pred of self" (Some 5)
    (Option.map snd (Ring.predecessor (id 5) r))

let test_ring_empty () =
  let r : int Ring.t = Ring.create () in
  Alcotest.(check bool) "no successor" true (Ring.successor (id 1) r = None);
  Alcotest.(check bool) "no predecessor" true (Ring.predecessor (id 1) r = None)

let test_ring_k_successors () =
  let r = ring_of [ 10; 20; 30; 40 ] in
  let ks = Ring.k_successors 3 (id 10) r |> List.map snd in
  Alcotest.(check (list int)) "three in order" [ 20; 30; 40 ] ks;
  let all = Ring.k_successors 10 (id 10) r |> List.map snd in
  Alcotest.(check (list int)) "capped at ring size" [ 20; 30; 40; 10 ] all

let test_ring_remove () =
  let r = ring_of [ 10; 20; 30 ] in
  Ring.remove (id 20) r;
  Alcotest.(check (option int)) "succ skips removed" (Some 30)
    (Option.map snd (Ring.successor (id 10) r));
  Alcotest.(check int) "cardinal" 2 (Ring.cardinal r)

(* The ring is walked in place, so a callback that adds or removes a
   member must be stopped, not left to read shifted slots. *)
let test_ring_iter_mutation () =
  let r = ring_of [ 10; 20; 30 ] in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "add in iter raises" true
    (raises (fun () -> Ring.iter (fun k _ -> Ring.add (Id.succ_id k) 0 r) r));
  Alcotest.(check bool) "remove in iter raises" true
    (raises (fun () -> Ring.iter (fun k _ -> Ring.remove k r) r));
  let seen = ref [] in
  Ring.iter (fun _ v -> seen := v :: !seen) r;
  Alcotest.(check int) "reads alone do not raise" (Ring.cardinal r) (List.length !seen)

let prop_ring_successor_is_closest =
  QCheck.Test.make ~name:"ring successor minimises clockwise distance" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 20) arb_id) arb_id)
    (fun (ids, probe) ->
      let r = of_list (List.map (fun i -> (i, ())) ids) in
      match Ring.successor probe r with
      | None -> ids = []
      | Some (s, ()) ->
        List.for_all
          (fun m ->
            Id.equal m probe
            || Id.compare
                 (Id.distance probe (if Id.equal s probe then m else s))
                 (Id.distance probe m)
               <= 0)
          (List.filter (fun m -> not (Id.equal m probe)) ids))

let prop_ring_walk_covers_all =
  QCheck.Test.make ~name:"walking successors visits every member once" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 30) arb_id)
    (fun ids ->
      let uniq = List.sort_uniq Id.compare ids in
      let r = of_list (List.map (fun i -> (i, ())) uniq) in
      match uniq with
      | [] -> true
      | start :: _ ->
        let rec walk cur seen =
          match Ring.successor cur r with
          | Some (next, ()) when Id.equal next start -> List.length seen
          | Some (next, ()) -> walk next (next :: seen)
          | None -> -1
        in
        walk start [ start ] = List.length uniq)

(* ---------- hash / key ---------- *)

let test_hash_distribution () =
  (* 256 buckets over the low hash byte must stay near uniform for both
     SHA-style random ids and the adversarial dense-low-word regime that the
     old [Hashtbl.hash (hi, lo)] implementation also had to survive. *)
  let check_spread name ids =
    let buckets = Array.make 256 0 in
    List.iter
      (fun i -> buckets.(Id.hash i land 255) <- buckets.(Id.hash i land 255) + 1)
      ids;
    let n = List.length ids in
    let mean = n / 256 in
    Array.iteri
      (fun b c ->
        if c < mean / 4 || c > mean * 4 then
          Alcotest.failf "%s: bucket %d has %d of %d (mean %d)" name b c n mean)
      buckets
  in
  check_spread "random" (List.init 20_000 (fun _ -> Id.random rng));
  check_spread "dense low" (List.init 20_000 id);
  check_spread "shared high 96 bits"
    (let hi = Prng.bits64 rng in
     let lo = Int64.logand (Prng.bits64 rng) 0xFFFFFFFF00000000L in
     List.init 20_000 (fun i -> Id.of_int64_pair hi (Int64.logor lo (Int64.of_int i))))

let test_hash_no_collision_burst () =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun i -> Hashtbl.replace tbl (Id.hash (id i)) ())
    (List.init 10_000 (fun i -> i));
  Alcotest.(check bool)
    "at most a handful of collisions over 10k dense ids" true
    (Hashtbl.length tbl > 9_990)

let prop_key_monotone =
  QCheck.Test.make ~name:"key is a monotone projection of compare" ~count:1000
    QCheck.(pair arb_id arb_id)
    (fun (x, y) ->
      Id.key x >= 0
      && Id.key y >= 0
      &&
      let c = Id.compare x y and k = Stdlib.compare (Id.key x) (Id.key y) in
      (* unequal keys must agree with compare; equal keys decide nothing *)
      if k <> 0 then (k < 0) = (c < 0) else true)

(* The keyed comparison must agree with the full one.  Uniform triples
   rarely come near a key tie, so most draws
   place [x] and [y] at a chosen distance from the target: a high word
   within 8 of zero (key distances equal or 1-3 apart, or wrapping to just
   under 2^62), a low word that is random, 0, 1 or all ones (target - 1
   and target + 1 among them), and targets near zero so the
   identifiers wrap through it. *)
let gen_word =
  QCheck.Gen.map2
    (fun a b -> Int64.(logxor (of_int a) (shift_left (of_int b) 31)))
    QCheck.Gen.int QCheck.Gen.int

let gen_uniform_id = QCheck.Gen.map2 Id.of_int64_pair gen_word gen_word

let gen_near_target =
  QCheck.Gen.(
    oneof
      [
        gen_uniform_id;
        map2 Id.of_int64_pair (map Int64.of_int (int_range (-4) 3)) gen_word;
      ])

let gen_near ~target =
  QCheck.Gen.(
    map2
      (fun dh lo -> Id.sub target (Id.of_int64_pair (Int64.of_int dh) lo))
      (int_range (-8) 8)
      (oneof [ gen_word; oneofl [ 0L; 1L; -1L; 2L ] ]))

let arb_keyed_triple =
  QCheck.make
    ~print:(fun (t, x, y) -> String.concat " " (List.map Id.to_hex [ t; x; y ]))
    QCheck.Gen.(
      frequency
        [
          (1, triple gen_uniform_id gen_uniform_id gen_uniform_id);
          ( 3,
            gen_near_target >>= fun target ->
            map2 (fun x y -> (target, x, y)) (gen_near ~target) (gen_near ~target) );
        ])

let prop_closer_clockwise_keyed =
  QCheck.Test.make ~name:"keyed comparison = closer_clockwise; near key-tie triples"
    ~count:3000 arb_keyed_triple (fun (target, x, y) ->
      let kd z = (Id.key target - Id.key z) land Id.key_mask in
      Id.closer_clockwise_keyed ~target (kd x) x (kd y) y = Id.closer_clockwise ~target x y)

(* ---------- ring vs reference-Map model ---------- *)

(* The seed's ring was a persistent [Map.Make (Id)]; this model replays a
   random op sequence against both the flat ring and the Map and demands
   identical answers from every query the routing layer uses.  The id pool
   mixes full-width random ids with dense small ids (hi = 0), so the
   [Id.key] tie-break paths of the chunked search get exercised, not just
   the fast unequal-keys path. *)
module M = Map.Make (Id)

let map_successor x m =
  match M.find_first_opt (fun k -> Id.compare k x > 0) m with
  | Some kv -> Some kv
  | None -> M.min_binding_opt m

let map_successor_incl x m =
  match M.find_first_opt (fun k -> Id.compare k x >= 0) m with
  | Some kv -> Some kv
  | None -> M.min_binding_opt m

let map_predecessor x m =
  match M.find_last_opt (fun k -> Id.compare k x < 0) m with
  | Some kv -> Some kv
  | None -> M.max_binding_opt m

(* The first [k] members strictly clockwise of [x]; [x] itself, at
   distance zero, comes a full turn later. *)
let map_k_successors k x m =
  let others, self = List.partition (fun (y, _) -> not (Id.equal x y)) (M.bindings m) in
  List.sort (fun (a, _) (b, _) -> Id.compare (Id.distance x a) (Id.distance x b)) others
  @ self
  |> List.filteri (fun i _ -> i < k)

let arb_pool_id =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Id.pp i)
    QCheck.Gen.(
      oneof
        [
          map2
            (fun hi lo -> Id.of_int64_pair (Int64.of_int hi) (Int64.of_int lo))
            int int;
          map (fun i -> Id.of_int i) (int_range 0 40);
        ])

let arb_ops =
  (* (add?, pool index) pairs over a shared pool make removals actually hit
     and re-adds replace payloads. *)
  QCheck.(
    pair
      (list_of_size (Gen.int_range 1 30) arb_pool_id)
      (list_of_size (Gen.int_range 0 120) (pair bool small_nat)))

let prop_ring_matches_map =
  QCheck.Test.make ~name:"flat ring replays op sequences like the seed Map"
    ~count:300 arb_ops (fun (pool, ops) ->
      let pool = Array.of_list pool in
      let npool = Array.length pool in
      (* the shrinker may empty the pool below the generator's size bound *)
      QCheck.assume (npool > 0);
      let ring = Ring.create () in
      let step (m, v) (is_add, idx) =
        let x = pool.(idx mod npool) in
        if is_add then begin
          Ring.add x v ring;
          (M.add x v m, v + 1)
        end
        else begin
          Ring.remove x ring;
          (M.remove x m, v)
        end
      in
      let map, _ = List.fold_left step (M.empty, 0) ops in
      let same_opt a b =
        match (a, b) with
        | None, None -> true
        | Some (k1, v1), Some (k2, v2) -> Id.equal k1 k2 && v1 = v2
        | _ -> false
      in
      Ring.cardinal ring = M.cardinal map
      && Ring.to_list ring = M.bindings map
      && Array.for_all
           (fun x ->
             Ring.mem x ring = M.mem x map
             && Ring.find x ring = M.find_opt x map
             && same_opt (Ring.successor x ring) (map_successor x map)
             && same_opt (Ring.successor_incl x ring) (map_successor_incl x map)
             && same_opt (Ring.predecessor x ring) (map_predecessor x map)
             && Ring.k_successors 3 x ring = map_k_successors 3 x map)
           pool)

(* Programs long enough to split chunks (128 entries) and to shrink them
   back into merges: the chunk audit must stay clean after every step and
   the ring must end equal to the Map.  Adds dominate the first half of a
   program and removes the second, over a pool that mixes dense
   key-colliding ids with random ones. *)
let prop_ring_chunks_audit =
  QCheck.Test.make ~name:"chunk audit stays clean under long add/remove programs"
    ~count:40
    QCheck.(pair (int_range 1 1_000_000) (int_range 200 700))
    (fun (seed, npool) ->
      let rng = Prng.create seed in
      let pool =
        Array.init npool (fun i ->
            if i land 1 = 0 then Id.of_int (Prng.int rng 1000) else Id.random rng)
      in
      let ring = Ring.create () in
      let steps = 4 * npool in
      let rec go m i =
        if i = steps then m
        else begin
          let x = pool.(Prng.int rng npool) in
          let add_share = if i < steps / 2 then 85 else 15 in
          let m =
            if Prng.int rng 100 < add_share then begin
              Ring.add x i ring;
              M.add x i m
            end
            else begin
              Ring.remove x ring;
              M.remove x m
            end
          in
          (match Ring.audit ring with
           | [] -> ()
           | problems -> QCheck.Test.fail_reportf "step %d: %s" i (String.concat "; " problems));
          go m (i + 1)
        end
      in
      let m = go M.empty 0 in
      Ring.to_list ring = M.bindings m)

(* ---------- cursors ---------- *)

let test_cursor_basics () =
  let r = ring_of [ 10; 20; 30 ] in
  let at c = Ring.value_at r c in
  Alcotest.(check int) "gt 10 -> 20" 20 (at (Ring.cursor_gt (id 10) r));
  Alcotest.(check int) "gt 15 -> 20" 20 (at (Ring.cursor_gt (id 15) r));
  Alcotest.(check int) "gt 30 wraps -> 10" 10 (at (Ring.cursor_gt (id 30) r));
  Alcotest.(check int) "lt 20 -> 10" 10 (at (Ring.cursor_lt (id 20) r));
  Alcotest.(check int) "lt 10 wraps -> 30" 30 (at (Ring.cursor_lt (id 10) r));
  Alcotest.(check bool) "find member" false
    (Ring.cursor_is_none (Ring.cursor_find (id 20) r));
  Alcotest.(check bool) "find non-member" true
    (Ring.cursor_is_none (Ring.cursor_find (id 15) r));
  Alcotest.(check bool) "id_at agrees" true
    (Id.equal (id 20) (Ring.id_at r (Ring.cursor_find (id 20) r)))

let test_cursor_stepping () =
  let members = [ 10; 20; 30; 40 ] in
  let r = ring_of members in
  (* A full clockwise loop from the minimum visits every member once and
     returns to the start; prev undoes next at every position. *)
  let start = Ring.cursor_find (id 10) r in
  let rec loop c acc n =
    if n = 0 then List.rev acc
    else loop (Ring.cursor_next r c) (Ring.value_at r c :: acc) (n - 1)
  in
  Alcotest.(check (list int)) "next walks in order" members (loop start [] 4);
  Alcotest.(check bool) "wraps to start" true
    (Ring.cursor_equal start
       (Ring.cursor_next r
          (Ring.cursor_next r (Ring.cursor_next r (Ring.cursor_next r start)))));
  let rec check c n =
    if n = 0 then true
    else
      Ring.cursor_equal c (Ring.cursor_prev r (Ring.cursor_next r c))
      && check (Ring.cursor_next r c) (n - 1)
  in
  Alcotest.(check bool) "prev inverts next" true (check start 4)

let test_cursor_empty () =
  let r : int Ring.t = Ring.create () in
  Alcotest.(check bool) "gt none" true (Ring.cursor_is_none (Ring.cursor_gt (id 1) r));
  Alcotest.(check bool) "lt none" true (Ring.cursor_is_none (Ring.cursor_lt (id 1) r));
  Alcotest.(check bool) "find none" true
    (Ring.cursor_is_none (Ring.cursor_find (id 1) r))

let prop_cursor_matches_option_api =
  QCheck.Test.make ~name:"cursors agree with the option API" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 200) arb_pool_id) arb_pool_id)
    (fun (ids, probe) ->
      let r = of_list (List.map (fun i -> (i, ())) ids) in
      let via_cursor mk =
        let c = mk probe r in
        if Ring.cursor_is_none c then None else Some (Ring.id_at r c, Ring.value_at r c)
      in
      let same a b =
        match (a, b) with
        | None, None -> true
        | Some (k1, ()), Some (k2, ()) -> Id.equal k1 k2
        | _ -> false
      in
      same (via_cursor Ring.cursor_gt) (Ring.successor probe r)
      && same (via_cursor Ring.cursor_lt) (Ring.predecessor probe r))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rofl_idspace"
    [
      ( "id",
        [
          Alcotest.test_case "zero/max wrap" `Quick test_zero_max;
          Alcotest.test_case "add/sub roundtrip" `Quick test_add_sub_roundtrip;
          Alcotest.test_case "distance to self" `Quick test_distance_zero;
          Alcotest.test_case "distance antisymmetry" `Quick test_distance_asymmetry;
          Alcotest.test_case "small distances" `Quick test_distance_small;
          Alcotest.test_case "between basic" `Quick test_between_basic;
          Alcotest.test_case "between wraparound" `Quick test_between_wraparound;
          Alcotest.test_case "between inclusive" `Quick test_between_incl;
          Alcotest.test_case "closer_clockwise" `Quick test_closer_clockwise;
          Alcotest.test_case "bits and digits" `Quick test_bits_digits;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs;
          Alcotest.test_case "unsigned compare" `Quick test_compare_unsigned;
          Alcotest.test_case "hex rendering" `Quick test_hex_rendering;
          q prop_succ_pred_inverse;
          q prop_compare_dist;
          q prop_between_distance;
          q prop_distance_triangle_on_ring;
        ] );
      ( "ring",
        [
          Alcotest.test_case "successor" `Quick test_ring_successor;
          Alcotest.test_case "successor_incl" `Quick test_ring_successor_incl;
          Alcotest.test_case "predecessor" `Quick test_ring_predecessor;
          Alcotest.test_case "singleton" `Quick test_ring_singleton;
          Alcotest.test_case "empty" `Quick test_ring_empty;
          Alcotest.test_case "k successors" `Quick test_ring_k_successors;
          Alcotest.test_case "remove" `Quick test_ring_remove;
          Alcotest.test_case "mutation inside iter raises" `Quick test_ring_iter_mutation;
          q prop_ring_successor_is_closest;
          q prop_ring_walk_covers_all;
        ] );
      ( "hash",
        [
          Alcotest.test_case "bucket spread" `Quick test_hash_distribution;
          Alcotest.test_case "dense ids stay distinct" `Quick
            test_hash_no_collision_burst;
          q prop_key_monotone;
          q prop_closer_clockwise_keyed;
        ] );
      ("ring model", [ q prop_ring_matches_map; q prop_ring_chunks_audit ]);
      ( "cursor",
        [
          Alcotest.test_case "searches" `Quick test_cursor_basics;
          Alcotest.test_case "stepping" `Quick test_cursor_stepping;
          Alcotest.test_case "empty" `Quick test_cursor_empty;
          q prop_cursor_matches_option_api;
        ] );
    ]
