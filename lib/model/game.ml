open Numeric

type t = {
  weights : Rational.t array;
  uncertainty : Uncertainty.t array;
  beliefs : Belief.t array; (* decision-equivalent beliefs (Uncertainty.belief) *)
  capacities : Rational.t array array; (* capacities.(i).(l) = c^l_i *)
  contribs : Rational.t array; (* presence-discounted weight others meet *)
  biases : Rational.t array; (* w_i - contribs.(i), own-latency surcharge *)
  load_linear : bool;
  packed : Packing.t option; (* native-int tables for the View fast lane *)
}

let validate_weights weights =
  if Array.length weights = 0 then invalid_arg "Game.make: no users";
  Array.iter
    (fun w -> if Rational.sign w <= 0 then invalid_arg "Game.make: traffics must be positive")
    weights

let make_uncertain ~weights ~uncertainty =
  validate_weights weights;
  if Array.length uncertainty <> Array.length weights then
    invalid_arg "Game.make: one uncertainty backend per user required";
  let m = Uncertainty.links uncertainty.(0) in
  Array.iter
    (fun u ->
      if Uncertainty.links u <> m then invalid_arg "Game.make: beliefs disagree on link count")
    uncertainty;
  if m < 2 then invalid_arg "Game.make: at least two links required";
  let capacities = Array.map Uncertainty.eval_capacities uncertainty in
  (* Load-linear users contribute their full weight; sharing the weight
     value keeps every Bayesian game bit-identical to the pre-backend
     construction. *)
  let contribs =
    Array.map2
      (fun u w -> if Uncertainty.is_load_linear u then w else Rational.mul (Uncertainty.load_factor u) w)
      uncertainty weights
  in
  let biases = Array.map2 Rational.sub weights contribs in
  let load_linear = Array.for_all Uncertainty.is_load_linear uncertainty in
  {
    weights = Array.copy weights;
    uncertainty = Array.copy uncertainty;
    beliefs = Array.map Uncertainty.belief uncertainty;
    capacities;
    contribs;
    biases;
    load_linear;
    (* The packed lane's three-factor Nash products assume latencies of
       the exact form load/ĉ, so only load-linear games get tables. *)
    packed =
      (if load_linear then
         Packing.build ~mults:(Array.make (Array.length weights) 1) weights capacities
       else None);
  }

let make ~weights ~beliefs =
  if Array.length beliefs <> Array.length weights then
    invalid_arg "Game.make: one belief per user required";
  make_uncertain ~weights ~uncertainty:(Array.map Uncertainty.bayesian beliefs)

let of_capacities ~weights caps =
  validate_weights weights;
  if Array.length caps <> Array.length weights then
    invalid_arg "Game.of_capacities: one capacity row per user required";
  let beliefs =
    Array.map (fun row -> Belief.certain (State.make row)) caps
  in
  make ~weights ~beliefs

let kp ~weights ~capacities =
  validate_weights weights;
  let st = State.make capacities in
  let beliefs = Array.map (fun _ -> Belief.certain st) weights in
  make ~weights ~beliefs

let users g = Array.length g.weights
let links g = Array.length g.capacities.(0)

let weight g i =
  if i < 0 || i >= users g then invalid_arg "Game.weight: user out of range";
  g.weights.(i)

let weights g = Array.copy g.weights
let total_traffic g = Rational.sum_array g.weights

let belief g i =
  if i < 0 || i >= users g then invalid_arg "Game.belief: user out of range";
  g.beliefs.(i)

let uncertainty g i =
  if i < 0 || i >= users g then invalid_arg "Game.uncertainty: user out of range";
  g.uncertainty.(i)

let contribution g i =
  if i < 0 || i >= users g then invalid_arg "Game.contribution: user out of range";
  g.contribs.(i)

let bias g i =
  if i < 0 || i >= users g then invalid_arg "Game.bias: user out of range";
  g.biases.(i)

let is_load_linear g = g.load_linear

let capacity g i l =
  if i < 0 || i >= users g then invalid_arg "Game.capacity: user out of range";
  if l < 0 || l >= links g then invalid_arg "Game.capacity: link out of range";
  g.capacities.(i).(l)

let capacity_row g i =
  if i < 0 || i >= users g then invalid_arg "Game.capacity_row: user out of range";
  Array.copy g.capacities.(i)

let capacity_matrix g = Array.map Array.copy g.capacities
let packed_tables g = g.packed

let rows g =
  { Packing.weights = g.weights; contribs = g.contribs; biases = g.biases; caps = g.capacities }

let is_kp g =
  let first = g.capacities.(0) in
  Array.for_all (fun row -> Array.for_all2 Rational.equal first row) g.capacities

let has_uniform_beliefs g =
  Array.for_all (fun row -> Array.for_all (Rational.equal row.(0)) row) g.capacities

let is_symmetric g = Array.for_all (Rational.equal g.weights.(0)) g.weights

let restrict g ~drop =
  if drop < 0 || drop >= users g then invalid_arg "Game.restrict: user out of range";
  if users g <= 1 then invalid_arg "Game.restrict: cannot drop the last user";
  let keep = List.filter (fun i -> i <> drop) (List.init (users g) Fun.id) in
  let pick arr = Array.of_list (List.map (Array.get arr) keep) in
  let weights = pick g.weights and capacities = pick g.capacities in
  let uncertainty = pick g.uncertainty in
  let load_linear = Array.for_all Uncertainty.is_load_linear uncertainty in
  {
    weights;
    uncertainty;
    beliefs = pick g.beliefs;
    capacities;
    contribs = pick g.contribs;
    biases = pick g.biases;
    load_linear;
    packed =
      (if load_linear then
         Packing.build ~mults:(Array.make (Array.length weights) 1) weights capacities
       else None);
  }

let pp fmt g =
  Format.fprintf fmt "game n=%d m=%d w=%a" (users g) (links g)
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") Rational.pp)
    (Array.to_list g.weights)
