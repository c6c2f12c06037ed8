open Numeric
open Population

type t = Population.t

let validate_weights weights =
  if Array.length weights = 0 then invalid_arg "Game.make: no users";
  check_traffics "Game.make" weights

let make_uncertain ~weights ~uncertainty =
  validate_weights weights;
  if Array.length uncertainty <> Array.length weights then
    invalid_arg "Game.make: one uncertainty backend per user required";
  Population.make "Game.make" ~counts:(Array.make (Array.length weights) 1) ~weights ~uncertainty

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

let users g = g.users
let links g = Array.length g.capacities.(0)

let weight g i =
  if i < 0 || i >= users g then invalid_arg "Game.weight: user out of range";
  g.weights.(i)

let weights g = Array.copy g.weights
let total_traffic g = g.total

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

let rows = Population.rows

let is_kp g =
  let first = g.capacities.(0) in
  Array.for_all (fun row -> Array.for_all2 Rational.equal first row) g.capacities

let has_uniform_beliefs g =
  Array.for_all (fun row -> Array.for_all (Rational.equal row.(0)) row) g.capacities

let is_symmetric g = Array.for_all (Rational.equal g.weights.(0)) g.weights
