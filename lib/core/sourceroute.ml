type t = int list

let of_hops = function
  | [] -> invalid_arg "Sourceroute.of_hops: empty route"
  | hops -> hops

let singleton r = [ r ]

let hops t = t

let origin = function
  | r :: _ -> r
  | [] -> invalid_arg "Sourceroute.origin: empty"

let rec last r = function
  | [] -> r
  | r' :: rest -> last r' rest

let destination = function
  | r :: rest -> last r rest
  | [] -> invalid_arg "Sourceroute.destination: empty"

let length t = List.length t - 1

let reverse = List.rev

let concat a b =
  match b with
  | junction :: rest ->
    if destination a <> junction then
      invalid_arg "Sourceroute.concat: routes do not meet"
    else a @ rest
  | [] -> invalid_arg "Sourceroute.concat: empty second route"

let contains_router t r = List.mem r t

let is_valid ls t =
  match t with
  | [] -> false
  | _ -> Rofl_linkstate.Linkstate.valid_source_route ls t

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "->")
       Format.pp_print_int)
    t
