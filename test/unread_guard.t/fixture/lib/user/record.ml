type r = { cfg : Strs.config; n : int }

exception Bad of Strs.config

let width (c : Strs.config) = c.Strs.width
let apply ~f x = f x
let labelled = apply ~f:Strs.by_label "x"
