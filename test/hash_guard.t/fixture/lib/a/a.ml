(* Hashtbl.iter named in a comment (* nested: Hashtbl.fold *) is no site. *)
let label = "Hashtbl.to_seq in a string \" (* is no site either"

module Tbl = Hashtbl.Make (Int)

let functorial t = Tbl.iter (fun _ _ -> ()) t

let sorted t = Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

let rec unordered t =
  Hashtbl.iter (fun k v -> if k < 0 then unordered v) t

and keys t = List.of_seq (Hashtbl.to_seq_keys t)

let twice t =
  let n = Hashtbl.fold (fun _ v acc -> acc + v) t 0 in
  n + Hashtbl.fold (fun _ v acc -> max acc v) t 0

let lookup t k = Hashtbl.find_opt t k
let hashtbl_iter_lookalike = Stdlib.Hashtbl.length
