type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

let quantile xs p =
  if Array.length xs = 0 then invalid_arg "Summary.quantile: empty sample";
  if p < 0.0 || p > 1.0 then invalid_arg "Summary.quantile: p outside [0, 1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let of_array xs =
  if Array.length xs = 0 then invalid_arg "Summary.of_array: empty sample";
  let w = Array.fold_left Welford.add Welford.empty xs in
  {
    count = Array.length xs;
    mean = Welford.mean w;
    stddev = Welford.stddev w;
    min = Welford.min w;
    p25 = quantile xs 0.25;
    median = quantile xs 0.5;
    p75 = quantile xs 0.75;
    max = Welford.max w;
  }
