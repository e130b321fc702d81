open Strs

let g x = opened x
