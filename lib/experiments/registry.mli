(** Every experiment the command-line driver, the bench harness and the
    tests run by name, in the order [rofl_sim all] runs them. *)

type experiment = {
  name : string;  (** subcommand and bench target name, e.g. ["fig5a"] *)
  doc : string;   (** one-line description, printed in each section header *)
  run : Common.scale -> Rofl_util.Table.t list;
}

val all : experiment list

val find : string -> experiment option
