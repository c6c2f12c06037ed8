open Numeric

type kind = Bayesian | Participation | Strict

(* Each backend caches its evaluation capacities at construction, so
   [Game.make_uncertain] reads them once per user through
   [Belief.effective_capacities]: the state's own capacities for a
   belief with one live state, the belief-weighted harmonic sums
   otherwise. *)
type t =
  | B of { belief : Belief.t; eval : Qvec.t }
  | P of { belief : Belief.t; presence : Rational.t; eval : Qvec.t }
  | S of { lo : State.t; hi : State.t; eval : Qvec.t }

let bayesian b = B { belief = b; eval = Belief.effective_capacities b }

let participation ~presence b =
  if Rational.sign presence <= 0 || Rational.compare presence Rational.one > 0 then
    invalid_arg "Uncertainty.participation: presence must lie in (0, 1]";
  P { belief = b; presence; eval = Belief.effective_capacities b }

let strict ~lo ~hi =
  let m = State.links lo in
  if State.links hi <> m then
    invalid_arg "Uncertainty.strict: interval endpoints disagree on link count";
  for l = 0 to m - 1 do
    if Rational.compare (State.capacity lo l) (State.capacity hi l) > 0 then
      invalid_arg "Uncertainty.strict: interval is empty (lo > hi) on some link"
  done;
  (* Worst case of a load-linear latency is the minimum capacity, so
     the whole backend evaluates through the lo endpoints. *)
  S { lo; hi; eval = State.capacities lo }

let strict_of_intervals ivs =
  let lo = State.make (Array.map fst ivs) and hi = State.make (Array.map snd ivs) in
  strict ~lo ~hi

let kind = function B _ -> Bayesian | P _ -> Participation | S _ -> Strict

let kind_name = function
  | Bayesian -> "bayesian"
  | Participation -> "participation"
  | Strict -> "strict"

let equal_kind a b =
  match (a, b) with
  | Bayesian, Bayesian | Participation, Participation | Strict, Strict -> true
  | (Bayesian | Participation | Strict), _ -> false

let eval = function B { eval; _ } | P { eval; _ } | S { eval; _ } -> eval
let links u = Array.length (eval u)

let eval_capacity u l =
  let e = eval u in
  if l < 0 || l >= Array.length e then invalid_arg "Uncertainty.eval_capacity: link out of range";
  e.(l)

let eval_capacities u = Array.copy (eval u)

let worst_case_inverse_capacity u l =
  if l < 0 || l >= links u then
    invalid_arg "Uncertainty.worst_case_inverse_capacity: link out of range";
  match u with
  | S { lo; _ } -> Rational.inv (State.capacity lo l)
  | B { belief; _ } | P { belief; _ } ->
    let space = Belief.space belief in
    let worst = ref Rational.zero in
    for k = 0 to State.space_size space - 1 do
      if Rational.sign (Belief.prob belief k) > 0 then
        worst := Rational.max !worst (Rational.inv (State.capacity (State.state space k) l))
    done;
    !worst

let load_factor = function
  | B _ | S _ -> Rational.one
  | P { presence; _ } -> presence

let presence = load_factor
let is_load_linear u = Rational.equal (load_factor u) Rational.one

let belief = function
  | B { belief; _ } | P { belief; _ } -> belief
  | S { lo; _ } -> Belief.certain lo

let strict_bounds = function
  | S { lo; hi; _ } -> Some (lo, hi)
  | B _ | P _ -> None

let equal a b =
  match (a, b) with
  | B { belief = ba; _ }, B { belief = bb; _ } -> Belief.equal ba bb
  | P { belief = ba; presence = pa; _ }, P { belief = bb; presence = pb; _ } ->
    Rational.equal pa pb && Belief.equal ba bb
  | S { lo = la; hi = ha; _ }, S { lo = lb; hi = hb; _ } ->
    State.equal la lb && State.equal ha hb
  | (B _ | P _ | S _), _ -> false
