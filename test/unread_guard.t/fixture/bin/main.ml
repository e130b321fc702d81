let k x = let open Strs in let_opened x
