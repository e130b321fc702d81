module Churn = Rofl_workload.Churn

type fault =
  | Cross_splice of { at_ms : float }
  | Stab_off of { at_ms : float }
  | Eclipse of { at_ms : float; victim : int; count : int; crash_at_ms : float }
      (** mine [count] self-certifying sybil identifiers into the ring arc
          owned by router [victim]'s label and join them; a negative
          [crash_at_ms] means they stay, otherwise they all crash at once
          then — the coordinated-failure half of an eclipse *)
  | Poison of { at_ms : float; fraction : float }
      (** flip a content-keyed [fraction] of routers to
          [Proto.Poison_succs] conduct *)
  | Forge of { at_ms : float; count : int }
      (** submit [count] joins whose credentials belong to a different
          identifier — the forged-claim workload the verification gate
          exists to reject *)

type event = Churn of Churn.event | Fault of fault

type t = {
  seed : int;
  graph : string;
  params : (string * string) list;
  fingerprint : string;
  events : event list;
}

let magic = "rofl-doctor-repro v1"

(* %h prints the exact bit pattern (hex float), so a written timestamp
   replays to the identical float. *)
let fl = Printf.sprintf "%h"

let event_to_line = function
  | Churn (Churn.Join { at_ms; seq }) -> Printf.sprintf "event join %s %d" (fl at_ms) seq
  | Churn (Churn.Leave { at_ms; seq }) -> Printf.sprintf "event leave %s %d" (fl at_ms) seq
  | Churn (Churn.Move { at_ms; seq }) -> Printf.sprintf "event move %s %d" (fl at_ms) seq
  | Churn (Churn.Crash { at_ms; seq }) -> Printf.sprintf "event crash %s %d" (fl at_ms) seq
  | Fault (Cross_splice { at_ms }) -> Printf.sprintf "event cross-splice %s" (fl at_ms)
  | Fault (Stab_off { at_ms }) -> Printf.sprintf "event stab-off %s" (fl at_ms)
  | Fault (Eclipse { at_ms; victim; count; crash_at_ms }) ->
    Printf.sprintf "event eclipse %s %d %d %s" (fl at_ms) victim count (fl crash_at_ms)
  | Fault (Poison { at_ms; fraction }) ->
    Printf.sprintf "event poison %s %s" (fl at_ms) (fl fraction)
  | Fault (Forge { at_ms; count }) -> Printf.sprintf "event forge %s %d" (fl at_ms) count

let to_lines a =
  (magic :: Printf.sprintf "seed %d" a.seed :: Printf.sprintf "graph %s" a.graph
   :: List.map (fun (k, v) -> Printf.sprintf "param %s %s" k v) a.params)
  @ (Printf.sprintf "fingerprint %s" a.fingerprint :: List.map event_to_line a.events)

let ( let* ) = Result.bind

let float_of_token s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "malformed float %S" s)

let int_of_token s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "malformed int %S" s)

(* Dispatch on the event kind before the operand count: kinds disagree on
   arity and on operand types (poison's second operand is a float where the
   churn kinds carry an int seq). *)
let event_of_line line =
  match String.split_on_char ' ' line with
  | "event" :: kind :: operands ->
    (match (kind, operands) with
     | ("join" | "leave" | "move" | "crash"), [ at; seq ] ->
       let* at_ms = float_of_token at in
       let* seq = int_of_token seq in
       Ok
         (Churn
            (match kind with
             | "join" -> Churn.Join { at_ms; seq }
             | "leave" -> Churn.Leave { at_ms; seq }
             | "move" -> Churn.Move { at_ms; seq }
             | _ -> Churn.Crash { at_ms; seq }))
     | "cross-splice", [ at ] ->
       let* at_ms = float_of_token at in
       Ok (Fault (Cross_splice { at_ms }))
     | "stab-off", [ at ] ->
       let* at_ms = float_of_token at in
       Ok (Fault (Stab_off { at_ms }))
     | "eclipse", [ at; victim; count; crash ] ->
       let* at_ms = float_of_token at in
       let* victim = int_of_token victim in
       let* count = int_of_token count in
       let* crash_at_ms = float_of_token crash in
       Ok (Fault (Eclipse { at_ms; victim; count; crash_at_ms }))
     | "poison", [ at; fraction ] ->
       let* at_ms = float_of_token at in
       let* fraction = float_of_token fraction in
       Ok (Fault (Poison { at_ms; fraction }))
     | "forge", [ at; count ] ->
       let* at_ms = float_of_token at in
       let* count = int_of_token count in
       Ok (Fault (Forge { at_ms; count }))
     | ( ( "join" | "leave" | "move" | "crash" | "cross-splice" | "stab-off"
         | "eclipse" | "poison" | "forge" ),
         _ ) ->
       Error (Printf.sprintf "wrong operand count for event %S" line)
     | k, _ -> Error (Printf.sprintf "unknown event kind %S" k))
  | _ -> Error (Printf.sprintf "malformed event line %S" line)

let of_lines lines =
  match lines with
  | m :: rest when String.trim m = magic ->
    let seed = ref None
    and graph = ref None
    and params = ref []
    and fingerprint = ref None
    and events = ref []
    and err = ref None in
    List.iter
      (fun line ->
        if !err = None then begin
          let line = String.trim line in
          if line <> "" then
            match String.index_opt line ' ' with
            | None -> err := Some (Printf.sprintf "malformed line %S" line)
            | Some i ->
              let key = String.sub line 0 i in
              let value = String.sub line (i + 1) (String.length line - i - 1) in
              (match key with
               | "seed" ->
                 (match int_of_token value with
                  | Ok s -> seed := Some s
                  | Error e -> err := Some e)
               | "graph" -> graph := Some value
               | "param" ->
                 (match String.index_opt value ' ' with
                  | Some j ->
                    params :=
                      ( String.sub value 0 j,
                        String.sub value (j + 1) (String.length value - j - 1) )
                      :: !params
                  | None -> err := Some (Printf.sprintf "malformed param line %S" line))
               | "fingerprint" -> fingerprint := Some value
               | "event" ->
                 (match event_of_line line with
                  | Ok ev -> events := ev :: !events
                  | Error e -> err := Some e)
               | _ -> err := Some (Printf.sprintf "unknown line key %S" key))
        end)
      rest;
    (match (!err, !seed, !graph, !fingerprint) with
     | Some e, _, _, _ -> Error e
     | None, None, _, _ -> Error "missing seed line"
     | None, _, None, _ -> Error "missing graph line"
     | None, _, _, None -> Error "missing fingerprint line"
     | None, Some seed, Some graph, Some fingerprint ->
       Ok
         {
           seed;
           graph;
           params = List.rev !params;
           fingerprint;
           events = List.rev !events;
         })
  | _ -> Error (Printf.sprintf "missing %S header" magic)

let write ~path a =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun line ->
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n')
        (to_lines a))

let read ~path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> of_lines lines
  | exception Sys_error e -> Error e
