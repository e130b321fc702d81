type t = {
  counts : (string, int ref) Hashtbl.t;
  load : int array;
  mutable wasted_hops : int;
  mutable cancellations : int;
  mutable join_rejects : int;
  mutable promo_rejects : int;
}

let create ~routers =
  if routers < 0 then invalid_arg "Metrics.create: negative router count";
  {
    counts = Hashtbl.create 16;
    load = Array.make routers 0;
    wasted_hops = 0;
    cancellations = 0;
    join_rejects = 0;
    promo_rejects = 0;
  }

let counter m category =
  match Hashtbl.find_opt m.counts category with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add m.counts category r;
    r

let incr m category k =
  let r = counter m category in
  r := !r + k

let handle = counter

let charge_hop m category router =
  incr m category 1;
  if router >= 0 && router < Array.length m.load then
    m.load.(router) <- m.load.(router) + 1

let charge_path m category = function
  | [] | [ _ ] -> ()
  | first :: _ as path ->
    let hops = List.length path - 1 in
    incr m category hops;
    if first >= 0 && first < Array.length m.load then
      m.load.(first) <- m.load.(first) + 1;
    List.iteri
      (fun i router ->
        if i > 0 && router >= 0 && router < Array.length m.load then
          m.load.(router) <- m.load.(router) + 1)
      path

let get m category =
  match Hashtbl.find_opt m.counts category with Some r -> !r | None -> 0

let total m = Hashtbl.fold (fun _ r acc -> acc + !r) m.counts 0

let categories m =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) m.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let router_load m = Array.copy m.load

let charge_wasted m hops = m.wasted_hops <- m.wasted_hops + hops

let charge_cancelled m k = m.cancellations <- m.cancellations + k

let wasted_hops m = m.wasted_hops

let cancellations m = m.cancellations

let charge_join_reject m = m.join_rejects <- m.join_rejects + 1

let charge_promo_reject m = m.promo_rejects <- m.promo_rejects + 1

let join_rejects m = m.join_rejects

let promo_rejects m = m.promo_rejects

let reset m =
  Hashtbl.reset m.counts;
  Array.fill m.load 0 (Array.length m.load) 0;
  m.wasted_hops <- 0;
  m.cancellations <- 0;
  m.join_rejects <- 0;
  m.promo_rejects <- 0

let merge_into ~dst src =
  if Array.length dst.load <> Array.length src.load then
    invalid_arg "Metrics.merge_into: router table size mismatch";
  Hashtbl.iter (fun k r -> incr dst k !r) src.counts;
  Array.iteri (fun i v -> dst.load.(i) <- dst.load.(i) + v) src.load;
  dst.wasted_hops <- dst.wasted_hops + src.wasted_hops;
  dst.cancellations <- dst.cancellations + src.cancellations;
  dst.join_rejects <- dst.join_rejects + src.join_rejects;
  dst.promo_rejects <- dst.promo_rejects + src.promo_rejects
