module Prng = Rofl_util.Prng

let ring n ~latency_ms =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  let g = Graph.create n in
  for i = 0 to n - 1 do
    Graph.add_link g i ((i + 1) mod n) ~latency_ms
  done;
  g

let line n ~latency_ms =
  if n < 2 then invalid_arg "Gen.line: need n >= 2";
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_link g i (i + 1) ~latency_ms
  done;
  g

let waxman rng ~n ~alpha ~beta =
  if n < 2 then invalid_arg "Gen.waxman: need n >= 2";
  let g = Graph.create n in
  let xs = Array.init n (fun _ -> Prng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Prng.float rng 1.0) in
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let latency i j = 0.5 +. (10.0 *. dist i j) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. Float.sqrt 2.0)) in
      if Prng.float rng 1.0 < p then Graph.add_link g i j ~latency_ms:(latency i j)
    done
  done;
  (* Repair pass: chain components together so the graph is connected. *)
  let label, count = Graph.connected_components g () in
  if count > 1 then begin
    let representative = Array.make count (-1) in
    Array.iteri (fun r c -> if representative.(c) = -1 then representative.(c) <- r) label;
    for c = 1 to count - 1 do
      let u = representative.(c - 1) and v = representative.(c) in
      if not (Graph.has_link g u v) then Graph.add_link g u v ~latency_ms:(latency u v)
    done
  end;
  g
