let concat = String.concat ""
let documented s = s
let aliased s = s
let opened s = s
let local_opened s = s
let let_opened s = s
let after_literals s = s
let tested s = s
let test_only s = s
let parked s = s

module type S = sig
  val in_signature : int
end

module Make (X : S) = struct
  let made = X.in_signature
end

type config = { width : int }

let config = { width = 0 }
let by_label s = s
