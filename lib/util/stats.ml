let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then a.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end
  end

let median xs = if xs = [] then 0.0 else percentile xs 50.0

let cdf xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then []
  else begin
    let total = float_of_int n in
    let points = ref [] in
    (* Walk from the end so each distinct value gets its highest rank. *)
    for i = n - 1 downto 0 do
      if i = n - 1 || a.(i) <> a.(i + 1) then
        points := (a.(i), float_of_int (i + 1) /. total) :: !points
    done;
    !points
  end

(* Invert at every fraction in one walk over the CDF: both the CDF points
   and (after sorting) the fractions are ascending, so a single cursor
   suffices instead of one O(|c|) scan per fraction.  Semantics per
   fraction are unchanged: first value whose cumulative fraction reaches
   [p], the last value if none does, 0 on an empty CDF. *)
let quantiles_of_cdf c ps =
  let n = List.length ps in
  let order = Array.init n (fun i -> i) in
  let pa = Array.of_list ps in
  Array.sort (fun a b -> compare pa.(a) pa.(b)) order;
  let out = Array.make n 0.0 in
  let rec go c idx =
    if idx < n then
      match c with
      | [] -> ()
      | [ (v, _) ] ->
        out.(order.(idx)) <- v;
        go c (idx + 1)
      | (v, f) :: rest ->
        if f >= pa.(order.(idx)) then begin
          out.(order.(idx)) <- v;
          go c (idx + 1)
        end
        else go rest idx
  in
  go c 0;
  Array.to_list out

let moving_average xs ~window =
  if window < 1 then invalid_arg "Stats.moving_average: window must be >= 1";
  let q = Queue.create () in
  let running = ref 0.0 in
  List.map
    (fun x ->
      Queue.push x q;
      running := !running +. x;
      if Queue.length q > window then running := !running -. Queue.pop q;
      !running /. float_of_int (Queue.length q))
    xs

let geometric_mean = function
  | [] -> 0.0
  | xs ->
    let logs = List.map (fun x ->
      if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
      log x) xs
    in
    exp (mean logs)
