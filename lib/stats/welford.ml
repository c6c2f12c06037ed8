type t = { n : int; mean : float; m2 : float; min : float; max : float }

let empty = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

let add t x =
  let n = t.n + 1 in
  let delta = x -. t.mean in
  let mean = t.mean +. (delta /. float_of_int n) in
  let m2 = t.m2 +. (delta *. (x -. mean)) in
  { n; mean; m2; min = Float.min t.min x; max = Float.max t.max x }

let count t = t.n

let require_nonempty name t = if t.n = 0 then invalid_arg ("Welford." ^ name ^ ": no samples")

let mean t =
  require_nonempty "mean" t;
  t.mean

let variance t =
  require_nonempty "variance" t;
  if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t =
  require_nonempty "min" t;
  t.min

let max t =
  require_nonempty "max" t;
  t.max
