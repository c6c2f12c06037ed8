type t = Rational.t array

let dim = Array.length

let sum = Rational.sum_array

let equal a b = Array.length a = Array.length b && Array.for_all2 Rational.equal a b

let is_distribution v =
  Array.for_all (fun q -> Rational.sign q >= 0 && Rational.compare q Rational.one <= 0) v
  && Rational.equal (sum v) Rational.one

let is_positive_distribution v =
  is_distribution v && Array.for_all (fun q -> Rational.sign q > 0) v
