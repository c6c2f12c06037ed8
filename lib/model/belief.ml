open Numeric

type t = { space : State.space; probs : Qvec.t }

let make space probs =
  if Qvec.dim probs <> State.space_size space then
    invalid_arg "Belief.make: distribution dimension differs from state-space size";
  if not (Qvec.is_distribution probs) then
    invalid_arg "Belief.make: probabilities must be non-negative and sum to 1";
  { space; probs = Array.copy probs }

let point space k =
  if k < 0 || k >= State.space_size space then invalid_arg "Belief.point: state index out of range";
  let probs = Array.make (State.space_size space) Rational.zero in
  probs.(k) <- Rational.one;
  { space; probs }

let certain st = point (State.singleton st) 0

let uniform space =
  let size = State.space_size space in
  { space; probs = Array.make size (Rational.of_ints 1 size) }

let space b = b.space
let probs b = Array.copy b.probs

let same_space a b =
  State.space_size a.space = State.space_size b.space
  && (let rec states_equal k =
        k >= State.space_size a.space
        || (State.equal (State.state a.space k) (State.state b.space k) && states_equal (k + 1))
      in
      states_equal 0)

let mixture a b ~weight =
  if not (same_space a b) then invalid_arg "Belief.mixture: beliefs live on different spaces";
  if Rational.sign weight < 0 || Rational.compare weight Rational.one > 0 then
    invalid_arg "Belief.mixture: weight outside [0, 1]";
  let keep = Rational.sub Rational.one weight in
  {
    space = a.space;
    probs =
      Array.init (Array.length a.probs) (fun k ->
          Rational.add (Rational.mul keep a.probs.(k)) (Rational.mul weight b.probs.(k)));
  }

let from_counts space counts ~smoothing =
  let states = State.space_size space in
  if Array.length counts <> states then
    invalid_arg "Belief.from_counts: one count per state required";
  Array.iter (fun c -> if c < 0 then invalid_arg "Belief.from_counts: negative count") counts;
  if Rational.sign smoothing < 0 then invalid_arg "Belief.from_counts: negative smoothing";
  let total = Array.fold_left ( + ) 0 counts in
  let denom =
    Rational.add (Rational.of_int total) (Rational.mul (Rational.of_int states) smoothing)
  in
  if Rational.is_zero denom then
    invalid_arg "Belief.from_counts: no observations and no smoothing";
  {
    space;
    probs =
      Array.map (fun c -> Rational.div (Rational.add (Rational.of_int c) smoothing) denom) counts;
  }

let prob b k =
  if k < 0 || k >= Array.length b.probs then invalid_arg "Belief.prob: state index out of range";
  b.probs.(k)

let links b = State.space_links b.space

let expected_inverse_capacity b l =
  let acc = ref Rational.zero in
  Array.iteri
    (fun k p ->
      if not (Rational.is_zero p) then
        acc := Rational.add !acc (Rational.div p (State.capacity (State.state b.space k) l)))
    b.probs;
  !acc

(* The one state carrying all the probability, if there is one.  Its
   probability is then 1, so the harmonic mean 1/(1/c) is the state's
   own (reduced) capacity c: certain, point and fully conditioned
   beliefs read their capacities with no division. *)
let sole_state b =
  let rec scan probs k found =
    if k = Array.length probs then found
    else if Rational.is_zero probs.(k) then scan probs (k + 1) found
    else match found with None -> scan probs (k + 1) (Some k) | Some _ -> None
  in
  scan b.probs 0 None

let effective_capacity b l =
  match sole_state b with
  | Some k -> State.capacity (State.state b.space k) l
  | None -> Rational.inv (expected_inverse_capacity b l)

let effective_capacities b =
  match sole_state b with
  | Some k -> State.capacities (State.state b.space k)
  | None -> Array.init (links b) (fun l -> Rational.inv (expected_inverse_capacity b l))

let is_uniform_link_view b =
  let caps = effective_capacities b in
  Array.for_all (Rational.equal caps.(0)) caps

let condition b ~event =
  let mass = ref Rational.zero in
  Array.iteri (fun k p -> if event k then mass := Rational.add !mass p) b.probs;
  if Rational.is_zero !mass then
    invalid_arg "Belief.condition: event has prior probability zero";
  {
    space = b.space;
    probs =
      Array.mapi
        (fun k p -> if event k then Rational.div p !mass else Rational.zero)
        b.probs;
  }

let equal a b = same_space a b && Qvec.equal a.probs b.probs
