(* Unit and property tests for Rofl_util: PRNG, heap, LRU, stats, bitset,
   table rendering. *)

module Prng = Rofl_util.Prng
module Heap = Rofl_util.Heap
module Lru = Rofl_util.Lru
module Stats = Rofl_util.Stats
module Bitset = Rofl_util.Bitset
module Table = Rofl_util.Table

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------- Prng ---------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_split_independent () =
  let parent1 = Prng.create 7 in
  let child1 = Prng.split parent1 in
  let parent2 = Prng.create 7 in
  let child2 = Prng.split parent2 in
  (* Extra draws from one parent must not perturb its child's stream. *)
  ignore (Prng.bits64 parent2);
  ignore (Prng.bits64 parent2);
  for _ = 1 to 10 do
    check Alcotest.int64 "child streams equal" (Prng.bits64 child1) (Prng.bits64 child2)
  done

let test_prng_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_in () =
  let g = Prng.create 4 in
  for _ = 1 to 500 do
    let v = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_prng_int_rejects_nonpositive () =
  let g = Prng.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_range () =
  let g = Prng.create 6 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_uniformity () =
  let g = Prng.create 8 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Prng.int g 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 15% of uniform" true
        (abs (c - expected) < expected * 15 / 100))
    buckets

let test_prng_zipf_rank1_most_popular () =
  let g = Prng.create 9 in
  let counts = Array.make 21 0 in
  for _ = 1 to 20_000 do
    let r = Prng.zipf g ~n:20 ~s:1.2 in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 5" true (counts.(1) > counts.(5));
  Alcotest.(check bool) "rank 2 beats rank 10" true (counts.(2) > counts.(10))

let test_prng_zipf_bounds () =
  let g = Prng.create 10 in
  for _ = 1 to 2000 do
    let r = Prng.zipf g ~n:7 ~s:0.9 in
    Alcotest.(check bool) "rank in [1,7]" true (r >= 1 && r <= 7)
  done

let test_prng_zipf_s1 () =
  let g = Prng.create 11 in
  for _ = 1 to 2000 do
    let r = Prng.zipf g ~n:50 ~s:1.0 in
    Alcotest.(check bool) "rank in [1,50]" true (r >= 1 && r <= 50)
  done

let test_prng_exponential_mean () =
  let g = Prng.create 12 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential g 3.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_prng_shuffle_permutation () =
  let g = Prng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_pick_distinct () =
  let g = Prng.create 14 in
  for _ = 1 to 50 do
    let picked = Prng.pick_distinct g 10 30 in
    check Alcotest.int "ten elements" 10 (List.length picked);
    check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare picked));
    List.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 30)) picked
  done

let test_prng_pick_distinct_all () =
  let g = Prng.create 15 in
  let picked = Prng.pick_distinct g 8 8 in
  check Alcotest.(list int) "all of [0,8)" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare picked)

(* Known answers: the streams of the record-based generator (state in a
   mutable [int64] field), recorded before the state moved into a byte
   block.  Every campaign and table draws from this stream. *)
let test_prng_known_answers () =
  let g = Prng.create 20260101 in
  List.iter
    (fun want -> check Alcotest.int64 "bits64" want (Prng.bits64 g))
    [ 0xf2acd20ec0fad03aL; 0x2c482c33d2ab04c6L; 0xc0fa83c1251e50b4L; 0xc570b66e1b950bebL ];
  List.iter
    (fun (bound, want) -> check Alcotest.int (Printf.sprintf "int %d" bound) want (Prng.int g bound))
    [ (1, 0); (7, 0); (100, 82); (1000003, 461856); (max_int, 1117965433089734650);
      (1 lsl 40, 811978367335) ];
  List.iter
    (fun want -> check (Alcotest.float 0.0) "float" want (Prng.float g 1.0))
    [ 0x1.6dd5898228feap-2; 0x1.3f8b7125a07dap-2; 0x1.9634f38b9cbfbp-1; 0x1.0c4776472b1e8p-2 ];
  check (Alcotest.float 0.0) "float 3.5" 0x1.d9532c90afc92p+0 (Prng.float g 3.5);
  let child = Prng.split g in
  List.iter
    (fun want -> check Alcotest.int64 "split child" want (Prng.bits64 child))
    [ 0x246c5855b489fbe4L; 0xc0dfc89b2eb723ecL; 0xcd0ef80358695f5bL ];
  check Alcotest.int64 "parent after split" 0xd2e506de83c240a8L (Prng.bits64 g)

(* The record-based generator as it was, kept here as the reference the
   byte-block state must reproduce draw for draw. *)
module Record_prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let bits64 g =
    g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
    mix64 g.state

  let split g = { state = bits64 g }

  let int g bound =
    let rec draw () =
      let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then draw () else v
    in
    draw ()

  let float g x =
    let bits = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
    bits /. 9007199254740992.0 *. x
end

(* A draw script: 0 = bits64, 1 = int, 2 = float, 3 = split (later draws
   come from the child). *)
let prop_prng_matches_record =
  QCheck.Test.make ~name:"prng = record-based reference, draw for draw" ~count:200
    QCheck.(pair int (small_list (pair (int_bound 3) (int_range 1 max_int))))
    (fun (seed, script) ->
      let g = ref (Prng.create seed) and r = ref (Record_prng.create seed) in
      List.for_all
        (fun (op, bound) ->
          match op with
          | 0 -> Prng.bits64 !g = Record_prng.bits64 !r
          | 1 -> Prng.int !g bound = Record_prng.int !r bound
          | 2 ->
            let x = float_of_int bound in
            Int64.bits_of_float (Prng.float !g x) = Int64.bits_of_float (Record_prng.float !r x)
          | _ ->
            g := Prng.split !g;
            r := Record_prng.split !r;
            true)
        script)

(* ---------- Heap ---------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h p p) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check
    Alcotest.(list (float 0.0))
    "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 "a";
  Heap.push h 1.0 "b";
  Heap.push h 1.0 "c";
  let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  check Alcotest.string "first" "a" (next ());
  check Alcotest.string "second" "b" (next ());
  check Alcotest.string "third" "c" (next ())

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None)

(* Regression for the pop-retention bug: pop used to move the last entry
   down without clearing its old slot, so the backing array kept a strong
   reference to every popped payload until the slot was overwritten — event
   closures (captures of whole networks) lived far past execution.  A weak
   pointer sees through the heap: after pop + major GC the payload must be
   gone. *)
let test_heap_pop_releases_payload () =
  let h = Heap.create () in
  let w = Weak.create 2 in
  (* Two elements: popping the first exercises the move-last-down path,
     popping the second the heap-becomes-empty path.  Allocate in an inner
     scope so the only surviving references are the heap's own. *)
  (fun () ->
    let a = Bytes.make 64 'a' and b = Bytes.make 64 'b' in
    Weak.set w 0 (Some a);
    Weak.set w 1 (Some b);
    Heap.push h 1.0 a;
    Heap.push h 2.0 b)
    ();
  Alcotest.(check bool) "payloads reachable while queued" true
    (Weak.check w 0 && Weak.check w 1);
  (match Heap.pop h with
   | Some (_, v) -> ignore (Sys.opaque_identity v)
   | None -> Alcotest.fail "expected first payload");
  (match Heap.pop h with
   | Some (_, v) -> ignore (Sys.opaque_identity v)
   | None -> Alcotest.fail "expected second payload");
  Gc.full_major ();
  Alcotest.(check bool) "first payload collected after pop" false (Weak.check w 0);
  Alcotest.(check bool) "second payload collected after pop" false (Weak.check w 1);
  (* The heap stays usable after its slots were vacated. *)
  Heap.push h 3.0 (Bytes.make 8 'c');
  Alcotest.(check int) "heap still works" 1 (Heap.length h)

let heap_property =
  QCheck.Test.make ~name:"heap sorts any float list" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun floats ->
      let h = Heap.create () in
      List.iter (fun f -> Heap.push h f f) floats;
      let rec drain acc =
        match Heap.pop h with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare floats)

(* Model check of the event-queue discipline: random interleavings of plain
   and keyed pushes and of pops through both the option API and the
   in-place accessors, against a sorted list keyed (prio, rail, seq).  Four
   priorities and three rails make ties the common case.  Plain pushes sit
   on rail -1 with the heap's own counter and carry int 0; a keyed push
   carries its op index, read back on a pop. *)
type heap_op = Push of int | Keyed of int * int | Pop | Take

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun p -> Push p) (int_bound 3));
        (3, map2 (fun p r -> Keyed (p, r)) (int_bound 3) (int_bound 2));
        (2, return Pop);
        (2, return Take);
      ])

(* Replays [ops] (the payload of op [i] is [payload i]) against [h] and the
   model; false on the first divergence.  Drains both at the end. *)
let heap_replay h ~payload ops =
  let model = ref [] and plain = ref 0 and rails = Array.make 3 0 in
  let reg = [| nan |] in
  let pop_matches ~flat =
    match List.sort compare !model with
    | [] -> Heap.is_empty h && Heap.pop h = None
    | (p, r, s, i) :: rest ->
      model := rest;
      if flat then begin
        Heap.min_prio_into h reg 0;
        let key_ok =
          reg.(0) = p && Heap.min_rail h = r && Heap.min_seq h = s
          && Heap.min_arg h = (if r < 0 then 0 else i)
        in
        key_ok && Heap.take h == payload i
      end
      else
        match Heap.pop h with Some (p', v) -> p' = p && v == payload i | None -> false
  in
  let step i op =
    match op with
    | Push p ->
      Heap.push h (float_of_int p) (payload i);
      model := (float_of_int p, -1, !plain, i) :: !model;
      incr plain;
      true
    | Keyed (p, r) ->
      let s = rails.(r) in
      rails.(r) <- s + 1;
      Heap.push_keyed h (float_of_int p) ~rail:r ~seq:s ~arg:i (payload i);
      model := (float_of_int p, r, s, i) :: !model;
      true
    | Pop -> pop_matches ~flat:false
    | Take -> pop_matches ~flat:true
  in
  let rec run i = function
    | [] -> true
    | op :: rest -> step i op && Heap.length h = List.length !model && run (i + 1) rest
  in
  let rec drain k = k = 0 || (pop_matches ~flat:(k land 1 = 0) && drain (k - 1)) in
  run 0 ops && drain (List.length !model) && Heap.is_empty h

let heap_model_property =
  QCheck.Test.make ~name:"heap drains in (prio, rail, seq) order" ~count:500
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_bound 300) heap_op_gen))
    (fun ops -> heap_replay (Heap.create ()) ~payload:Fun.id ops)

(* The weak-pointer check over a long model run: every payload is a fresh
   block, the queue grows to hundreds of entries, and once the run has
   drained the heap none of them may stay reachable through the payload
   column of the heap, which is still alive when the collector runs. *)
let test_heap_model_releases_payloads () =
  let g = Prng.create 0x4ea9 in
  let ops =
    List.init 5_000 (fun _ ->
        match Prng.int g 500 with
        | k when k < 150 -> Push (Prng.int g 4)
        | k when k < 300 -> Keyed (Prng.int g 4, Prng.int g 3)
        | k when k < 400 -> Pop
        | _ -> Take)
  in
  let w = Weak.create (List.length ops) in
  let payloads = Hashtbl.create 64 in
  let payload i =
    match Hashtbl.find_opt payloads i with
    | Some b -> b
    | None ->
      let b = Bytes.make 16 'p' in
      Weak.set w i (Some b);
      Hashtbl.replace payloads i b;
      b
  in
  let h = Heap.create () in
  let ok = heap_replay h ~payload ops in
  Alcotest.(check bool) "model agrees" true ok;
  Hashtbl.reset payloads;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr alive
  done;
  Alcotest.(check int) "no payload reachable after the drain" 0 !alive;
  Heap.push h 0.0 (Bytes.make 1 'x');
  Alcotest.(check int) "heap still usable" 1 (Heap.length h)

(* ---------- Lru ---------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "b" 2);
  check Alcotest.(option int) "find a" (Some 1) (Lru.find c "a");
  (* "a" is now most recent; adding "c" evicts "b". *)
  (match Lru.put c "c" 3 with
   | Some (k, v) ->
     check Alcotest.string "evicted key" "b" k;
     check Alcotest.int "evicted value" 2 v
   | None -> Alcotest.fail "expected eviction");
  check Alcotest.(option int) "b gone" None (Lru.find c "b");
  check Alcotest.(option int) "a stays" (Some 1) (Lru.find c "a")

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.put c "a" 1);
  ignore (Lru.put c "a" 9);
  check Alcotest.(option int) "replaced" (Some 9) (Lru.find c "a");
  check Alcotest.int "one entry" 1 (Lru.length c)

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 in
  (match Lru.put c "a" 1 with
   | Some ("a", 1) -> ()
   | _ -> Alcotest.fail "zero-capacity put should bounce the new binding");
  check Alcotest.int "empty" 0 (Lru.length c)

let test_lru_remove () =
  let c = Lru.create ~capacity:4 in
  ignore (Lru.put c "a" 1);
  Lru.remove c "a";
  check Alcotest.(option int) "removed" None (Lru.find c "a");
  Lru.remove c "never-there"

(* Recency is read back through evictions: fresh puts evict the least
   recently used first. *)
let test_lru_recency_order () =
  let c = Lru.create ~capacity:3 in
  List.iter (fun (k, v) -> ignore (Lru.put c k v)) [ ("a", 1); ("b", 2); ("c", 3) ];
  ignore (Lru.find c "a");
  let evicted = List.map (fun k -> Option.map fst (Lru.put c k 0)) [ "x"; "y"; "z" ] in
  check Alcotest.(list (option string)) "LRU first" [ Some "b"; Some "c"; Some "a" ] evicted

let lru_capacity_property =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 16) (small_list (pair small_int small_int)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun (k, v) -> ignore (Lru.put c k v)) ops;
      Lru.length c <= cap)

(* ---------- Stats ---------- *)

let test_stats_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty" 0.0 (Stats.mean [])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p50" 3.0 (Stats.percentile xs 50.0);
  checkf "p100" 5.0 (Stats.percentile xs 100.0);
  checkf "p25 interpolates" 2.0 (Stats.percentile xs 25.0)

let test_stats_median_even () = checkf "median" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_cdf () =
  let c = Stats.cdf [ 1.0; 1.0; 2.0; 3.0 ] in
  check
    Alcotest.(list (pair (float 1e-9) (float 1e-9)))
    "P(x<=v) at each distinct v"
    [ (1.0, 0.5); (2.0, 0.75); (3.0, 1.0) ]
    c

let test_stats_quantiles_invert () =
  let c = Stats.cdf [ 1.0; 2.0; 3.0; 4.0 ] in
  check
    Alcotest.(list (float 1e-9))
    "quantiles" [ 1.0; 2.0; 4.0 ]
    (Stats.quantiles_of_cdf c [ 0.25; 0.5; 1.0 ])

let test_stats_moving_average () =
  check
    Alcotest.(list (float 1e-9))
    "window 2"
    [ 1.0; 1.5; 2.5; 3.5 ]
    (Stats.moving_average [ 1.0; 2.0; 3.0; 4.0 ] ~window:2)

let percentile_monotone_property =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let p25 = Stats.percentile xs 25.0 in
      let p50 = Stats.percentile xs 50.0 in
      let p75 = Stats.percentile xs 75.0 in
      p25 <= p50 && p50 <= p75)

(* ---------- Bitset ---------- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 99" true (Bitset.mem b 99);
  Alcotest.(check bool) "not mem 50" false (Bitset.mem b 50);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal b)

let test_bitset_union_inter () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  Bitset.set a 1;
  Bitset.set a 2;
  Bitset.set b 2;
  Bitset.set b 3;
  let i = Bitset.inter a b in
  check Alcotest.(list int) "intersection" [ 2 ] (Bitset.to_list i);
  Bitset.union_into ~dst:a b;
  check Alcotest.(list int) "union" [ 1; 2; 3 ] (Bitset.to_list a)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 8)

(* ---------- Table ---------- *)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "3"; "4.5" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 4 && String.sub s 0 4 = "== T");
  Alcotest.(check bool) "contains 4.5" true (contains_substring s "4.5")

let test_table_wrong_arity () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "x,y" ];
  Table.add_row t [ "2"; "plain" ];
  let dir = Filename.temp_dir "rofl_table" "" in
  let path = Table.save_csv t ~dir in
  let csv = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Sys.rmdir dir;
  Alcotest.(check string) "csv escaping" "a,b\n1,\"x,y\"\n2,plain\n" csv

let test_table_fmt_float () =
  check Alcotest.string "integer" "42" (Table.fmt_float 42.0);
  check Alcotest.string "fraction" "1.5" (Table.fmt_float 1.5)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rofl_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "different seeds" `Quick test_prng_different_seeds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in;
          Alcotest.test_case "int rejects 0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "zipf popularity order" `Quick test_prng_zipf_rank1_most_popular;
          Alcotest.test_case "zipf bounds" `Quick test_prng_zipf_bounds;
          Alcotest.test_case "zipf s=1" `Quick test_prng_zipf_s1;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "pick_distinct" `Quick test_prng_pick_distinct;
          Alcotest.test_case "pick_distinct all" `Quick test_prng_pick_distinct_all;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
          q prop_prng_matches_record;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop releases payload" `Quick test_heap_pop_releases_payload;
          q heap_property;
          q heap_model_property;
          Alcotest.test_case "model run releases payloads" `Quick
            test_heap_model_releases_payloads;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic eviction" `Quick test_lru_basic;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "recency order" `Quick test_lru_recency_order;
          q lru_capacity_property;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "quantiles invert" `Quick test_stats_quantiles_invert;
          Alcotest.test_case "moving average" `Quick test_stats_moving_average;
          q percentile_monotone_property;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "union/inter" `Quick test_bitset_union_inter;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "wrong arity" `Quick test_table_wrong_arity;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "fmt_float" `Quick test_table_fmt_float;
        ] );
    ]
