(** The fixture's exports, one per verdict the guard must give. *)

val concat : string list -> string
(** Bare [concat] occurs elsewhere, in a file that does not open [Strs]. *)

val documented : string -> string
(** Named elsewhere only in a comment and a string literal. *)

val aliased : string -> string

val opened : string -> string

val local_opened : string -> string

val let_opened : string -> string

val after_literals : string -> string
(** Read only after a string and a char literal that hold comment and
    quote characters. *)

val tested : string -> string
(** Exported for tests: the fixture's test reads it. *)

val test_only : string -> string
(** Read by the fixture's test alone, and not allowlisted. *)

val parked : string -> string
(** Kept as a reference, though nothing reads it. *)

type config = { width : int }

val config : config
(** Named elsewhere only as a type: a record field's, an annotation's and
    an exception argument's. *)

val by_label : string -> string
(** Read as a labelled argument, [~f:Strs.by_label]. *)

module type S = sig
  val in_signature : int
end

module Make (X : S) : sig
  val made : int
end
