open Numeric

type t = {
  counts : int array;
  weights : Rational.t array;
  uncertainty : Uncertainty.t array;
  beliefs : Belief.t array;
  capacities : Rational.t array array;
  contribs : Rational.t array;
  biases : Rational.t array;
  load_linear : bool;
  users : int;
  total : Rational.t;
  packed : Packing.t option;
}

(* Load-linear users contribute their full weight; sharing the weight
   value keeps every Bayesian game bit-identical to the pre-backend
   construction. *)
let contribution u w =
  if Uncertainty.is_load_linear u then w else Rational.mul (Uncertainty.load_factor u) w

let check_traffics who weights =
  Array.iter
    (fun w -> if Rational.sign w <= 0 then invalid_arg (who ^ ": traffics must be positive"))
    weights

let make who ~counts ~weights ~uncertainty =
  check_traffics who weights;
  let m = Uncertainty.links uncertainty.(0) in
  Array.iter
    (fun u ->
      if Uncertainty.links u <> m then invalid_arg (who ^ ": beliefs disagree on link count"))
    uncertainty;
  if m < 2 then invalid_arg (who ^ ": at least two links required");
  let users =
    Array.fold_left
      (fun acc c ->
        if c <= 0 then invalid_arg (who ^ ": class counts must be positive");
        if c > max_int - acc then invalid_arg (who ^ ": total user count overflows a native int");
        acc + c)
      0 counts
  in
  let capacities = Array.map Uncertainty.eval_capacities uncertainty in
  let contribs = Array.map2 contribution uncertainty weights in
  let load_linear = Array.for_all Uncertainty.is_load_linear uncertainty in
  (* One integer pass over the weights serves both the exact total and
     the packed tables. *)
  let lifted = Packing.lift ~mults:counts weights in
  {
    counts = Array.copy counts;
    weights = Array.copy weights;
    uncertainty = Array.copy uncertainty;
    beliefs = Array.map Uncertainty.belief uncertainty;
    capacities;
    contribs;
    biases = Array.map2 Rational.sub weights contribs;
    load_linear;
    users;
    total = Rational.make lifted.mass lifted.den;
    (* The packed lane's three-factor Nash products assume latencies of
       the exact form load/ĉ, so only load-linear games get tables. *)
    packed = (if load_linear then Packing.build lifted capacities else None);
  }

let rows p =
  { Packing.weights = p.weights; contribs = p.contribs; biases = p.biases; caps = p.capacities }
