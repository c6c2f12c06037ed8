type t = {
  lo : float;
  hi : float;
  bins : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; bins = Array.make bins 0; underflow = 0; overflow = 0; total = 0 }

let add t x =
  t.total <- t.total + 1;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let n = Array.length t.bins in
    let i = int_of_float (float_of_int n *. (x -. t.lo) /. (t.hi -. t.lo)) in
    let i = if i >= n then n - 1 else i in
    t.bins.(i) <- t.bins.(i) + 1
  end

let count t = t.total
let underflow t = t.underflow
let overflow t = t.overflow
let counts t = Array.copy t.bins

let render t =
  let buf = Buffer.create 256 in
  let peak = Array.fold_left max 1 t.bins in
  let width = 40 in
  let n = Array.length t.bins in
  let cell = (t.hi -. t.lo) /. float_of_int n in
  Array.iteri
    (fun i c ->
      let bar = String.make (c * width / peak) '#' in
      Buffer.add_string buf
        (Printf.sprintf "[%8.3g, %8.3g) %6d %s\n"
           (t.lo +. (cell *. float_of_int i))
           (t.lo +. (cell *. float_of_int (i + 1)))
           c bar))
    t.bins;
  if t.underflow > 0 then Buffer.add_string buf (Printf.sprintf "underflow %d\n" t.underflow);
  if t.overflow > 0 then Buffer.add_string buf (Printf.sprintf "overflow %d\n" t.overflow);
  Buffer.contents buf
