type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g =
  let seed = bits64 g in
  { state = seed }

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g x =
  (* 53 random bits into [0,1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  bits /. 9007199254740992.0 *. x

let bool g = Int64.logand (bits64 g) 1L = 1L

let exponential g mean =
  let u = float g 1.0 in
  -. mean *. log (1.0 -. u)

(* Rejection-inversion sampling for the Zipf distribution, after
   W. Hormann & G. Derflinger, "Rejection-inversion to generate variates
   from monotone discrete distributions" (1996). *)
let zipf g ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if n = 1 then 1
  else if s = 1.0 then begin
    (* Harmonic special case via the same scheme with H(x) = ln x. *)
    let h x = log x in
    let h_inv x = exp x in
    let hx1 = h 1.5 -. 1.0 in
    let hn = h (Float.of_int n +. 0.5) in
    let rec draw () =
      let u = hn +. float g 1.0 *. (hx1 -. hn) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > Float.of_int n then Float.of_int n else k in
      if u >= h (k +. 0.5) -. (1.0 /. k) then int_of_float k else draw ()
    in
    draw ()
  end
  else begin
    let q = s in
    let one_minus_q = 1.0 -. q in
    let h x = (x ** one_minus_q) /. one_minus_q in
    let h_inv x = (one_minus_q *. x) ** (1.0 /. one_minus_q) in
    let hx1 = h 1.5 -. 1.0 in
    let hn = h (Float.of_int n +. 0.5) in
    let rec draw () =
      let u = hn +. float g 1.0 *. (hx1 -. hn) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > Float.of_int n then Float.of_int n else k in
      if u >= h (k +. 0.5) -. (k ** (-. q)) then int_of_float k else draw ()
    in
    draw ()
  end

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample g a =
  if Array.length a = 0 then invalid_arg "Prng.sample: empty array";
  a.(int g (Array.length a))

let pick_distinct g k n =
  if k > n then invalid_arg "Prng.pick_distinct: k > n";
  if 3 * k >= n then begin
    let a = Array.init n (fun i -> i) in
    shuffle g a;
    Array.to_list (Array.sub a 0 k)
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let rec take acc remaining =
      if remaining = 0 then acc
      else begin
        let v = int g n in
        if Hashtbl.mem seen v then take acc remaining
        else begin
          Hashtbl.add seen v ();
          take (v :: acc) (remaining - 1)
        end
      end
    in
    take [] k
  end
