open Numeric

type t = Rational.t array
type space = t array

let make caps =
  if Array.length caps = 0 then invalid_arg "State.make: no links";
  Array.iter
    (fun c -> if Rational.sign c <= 0 then invalid_arg "State.make: capacities must be positive")
    caps;
  Array.copy caps

let of_ints caps = make (Array.map Rational.of_int caps)

let links = Array.length

let capacity s l =
  if l < 0 || l >= Array.length s then invalid_arg "State.capacity: link out of range";
  s.(l)

let capacities = Array.copy
let equal a b = Array.length a = Array.length b && Array.for_all2 Rational.equal a b

let space = function
  | [] -> invalid_arg "State.space: empty state space"
  | first :: _ as states ->
    let m = links first in
    List.iter
      (fun s -> if links s <> m then invalid_arg "State.space: inconsistent link counts")
      states;
    Array.of_list states

let singleton s = [| s |]
let space_links sp = links sp.(0)
let space_size = Array.length

let state sp k =
  if k < 0 || k >= Array.length sp then invalid_arg "State.state: index out of range";
  sp.(k)
