type t = int

let zero = 0
let ( + ) = Stdlib.( + )
let ( - ) = Stdlib.( - )
let of_ns ns = int_of_float (Float.round (ns *. 1000.0))
let to_ns t = float_of_int t /. 1000.0
let of_us us = of_ns (us *. 1000.0)
let to_us t = to_ns t /. 1000.0

let pp ppf t =
  let ns = to_ns t in
  if ns < 1e3 then Format.fprintf ppf "%.1fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.2fus" (ns /. 1e3)
  else Format.fprintf ppf "%.3fms" (ns /. 1e6)
