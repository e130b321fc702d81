(** Logging setup shared by the executables.

    All libraries log through {!Logs} sources named [rofl.*]; executables
    call {!setup} once.  Simulation hot paths only log at [Debug], so the
    default [Warning] level costs nothing. *)

val make_src : string -> Logs.src
(** [make_src "intra"] creates the [rofl.intra] source. *)

val setup : ?level:Logs.level -> unit -> unit
(** Install a stderr reporter (idempotent).  Default level [Warning];
    set [ROFL_LOG=debug|info|warning|error] in the environment to
    override. *)
