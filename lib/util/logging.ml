let make_src name = Logs.Src.create ("rofl." ^ name) ~doc:("ROFL " ^ name)

let level_of_env () =
  match Sys.getenv_opt "ROFL_LOG" with
  | Some "debug" -> Some Logs.Debug
  | Some "info" -> Some Logs.Info
  | Some "warning" -> Some Logs.Warning
  | Some "error" -> Some Logs.Error
  | Some _ | None -> None

let installed = ref false

let setup ?(level = Logs.Warning) () =
  if not !installed then begin
    installed := true;
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (Option.value ~default:level (level_of_env ())))
  end
