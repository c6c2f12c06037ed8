open Numeric

type t = Xoshiro256.t

let create seed = Xoshiro256.create (Int64.of_int seed)

(* One full 64-bit avalanche: a SplitMix64 step from the given word.
   [of_path] derives its seeding keys with it. *)
let mix64 z = fst (Splitmix64.next (Splitmix64.create z))

let of_path seed path =
  let absorb key c = mix64 (Int64.logxor key (mix64 (Int64.of_int c))) in
  Xoshiro256.create (List.fold_left absorb (mix64 (Int64.of_int seed)) path)

let bits64 = Xoshiro256.next_int64

(* 61 uniform bits: [2^61] still fits in OCaml's 63-bit int, so the
   rejection limit below stays positive. *)
let bits61 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 3)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] below 2^61. *)
  let limit = (1 lsl 61) - ((1 lsl 61) mod bound) in
  let rec draw () =
    let v = bits61 t in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let mantissa = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  (* Intended float boundary: the uniform [0,1) draw itself. *)
  float_of_int mantissa *. 0x1.0p-53 (* lint: allow R2 *)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick_list t = function
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let rational t ~den_bound =
  let d = int_in t 1 den_bound in
  Rational.of_ints (int_in t 0 d) d

let positive_rational t ~num_bound ~den_bound =
  Rational.of_ints (int_in t 1 num_bound) (int_in t 1 den_bound)

let simplex t ~dim ~grain =
  if dim <= 0 then invalid_arg "Rng.simplex: dim must be positive";
  if grain <= 0 then invalid_arg "Rng.simplex: grain must be positive";
  (* Stars and bars: choose dim-1 cut points with repetition in
     [0, grain], sort, take successive differences. *)
  let cuts = Array.init (dim - 1) (fun _ -> int_in t 0 grain) in
  Array.sort Int.compare cuts;
  Array.init dim (fun i ->
      let lo = if i = 0 then 0 else cuts.(i - 1) in
      let hi = if i = dim - 1 then grain else cuts.(i) in
      Rational.of_ints (hi - lo) grain)

let positive_simplex t ~dim ~grain =
  if grain < dim then invalid_arg "Rng.positive_simplex: grain must be >= dim";
  (* Give every coordinate one unit, distribute the rest freely. *)
  let rest = simplex t ~dim ~grain in
  let unit = Rational.of_ints 1 grain in
  let scale = Rational.of_ints (grain - dim) grain in
  Array.map (fun q -> Rational.add unit (Rational.mul scale q)) rest
