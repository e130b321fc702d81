module S = Strs
module M = Strs.Make (struct let in_signature = 1 end)

let f x = S.aliased x
let m = M.made
