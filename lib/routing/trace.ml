module Id = Rofl_idspace.Id

type kind = Ring | Cache | Flood | Backtrack

type level = Intra | Peer | Root | As of int | Virtual_as of int

type event = { kind : kind; router : int; level : level; dist : Id.t }

type t = event list

let kind_to_string = function
  | Ring -> "ring"
  | Cache -> "cache"
  | Flood -> "flood"
  | Backtrack -> "backtrack"

let level_to_string = function
  | Intra -> "intra"
  | Peer -> "peer"
  | Root -> "root"
  | As a -> Printf.sprintf "AS%d" a
  | Virtual_as v -> Printf.sprintf "vAS%d" v

let count t k = List.fold_left (fun acc e -> if e.kind = k then acc + 1 else acc) 0 t

let counts t =
  List.map (fun k -> (kind_to_string k, count t k)) [ Ring; Cache; Flood; Backtrack ]

let to_lines t =
  List.mapi
    (fun i e ->
      Printf.sprintf "%3d %-9s at=%-4d level=%-14s dist=%s" (i + 1)
        (kind_to_string e.kind) e.router (level_to_string e.level) (Id.to_short_string e.dist))
    t

type builder = { mutable rev : event list }

let builder () = { rev = [] }

let record b ~kind ~router ~level ~dist = b.rev <- { kind; router; level; dist } :: b.rev

let events b = List.rev b.rev
