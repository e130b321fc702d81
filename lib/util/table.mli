(** Aligned plain-text tables for the benchmark harness.

    Every figure/table the harness reproduces is printed through this module
    so the output format is uniform and easy to diff against
    [EXPERIMENTS.md]. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title line and a header row. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val render : t -> string
(** Render with aligned columns, title, header and separator.

    Kept as a reference: test_experiments' golden table digests hash it. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val save_csv : t -> dir:string -> string
(** Write the table as RFC-4180-ish CSV (header row then data rows; cells
    containing commas, quotes or newlines are quoted) under [dir] (created
    if missing) as a slug of the title; returns the path written. *)

val fmt_float : float -> string
(** Compact number formatting: integers without a point, else [%.4g]. *)
