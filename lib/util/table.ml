type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- row :: t.rows

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then begin
    let buf = Buffer.create (String.length c + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf ch)
      c;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else c

let render_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  (* [rows] is stored newest-first; [rev_map] restores insertion order. *)
  String.concat "\n" (line t.columns :: List.rev_map line t.rows) ^ "\n"

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    (String.lowercase_ascii s)

let save_csv t ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = slug t.title in
  let base = if String.length base > 80 then String.sub base 0 80 else base in
  let path = Filename.concat dir (base ^ ".csv") in
  let oc = open_out path in
  output_string oc (render_csv t);
  close_out oc;
  path
