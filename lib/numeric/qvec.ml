type t = Rational.t array

let make n q = Array.make n q
let init = Array.init
let of_list = Array.of_list
let dim = Array.length

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Qvec.%s: dimension mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> Rational.add x b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> Rational.sub x b.(i)) a

let scale k v = Array.map (Rational.mul k) v

let dot a b =
  check_dims "dot" a b;
  let acc = ref Rational.zero in
  for i = 0 to Array.length a - 1 do
    acc := Rational.add !acc (Rational.mul a.(i) b.(i))
  done;
  !acc

let sum = Rational.sum_array

let equal a b = Array.length a = Array.length b && Array.for_all2 Rational.equal a b

let extreme_index name better v =
  if Array.length v = 0 then invalid_arg (Printf.sprintf "Qvec.%s: empty vector" name);
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if better v.(i) v.(!best) then best := i
  done;
  !best

let min_index v = extreme_index "min_index" (fun a b -> Rational.compare a b < 0) v
let max_index v = extreme_index "max_index" (fun a b -> Rational.compare a b > 0) v

let is_distribution v =
  Array.for_all (fun q -> Rational.sign q >= 0 && Rational.compare q Rational.one <= 0) v
  && Rational.equal (sum v) Rational.one

let is_positive_distribution v =
  is_distribution v && Array.for_all (fun q -> Rational.sign q > 0) v

let pp fmt v =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") Rational.pp)
    (Array.to_list v)
