(* Strs.documented is named here only in a comment (* nested: Strs.concat *) *)
let label = "Strs.documented and Strs.concat, in a string \" (* "
let concat = List.concat
let joined = String.concat ", " [ "a"; "b" ]
let quote = '"'
let in_signature = 0
let read = Strs.after_literals
