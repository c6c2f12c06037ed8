let pct hits trials =
  if trials = 0 then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int trials)

let flt x = Printf.sprintf "%.4g" x

let heading id title =
  Printf.printf "\n=== %s: %s ===\n" id title
