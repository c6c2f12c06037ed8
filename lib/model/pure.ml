open Numeric

type profile = int array

let zero_initial g = Array.make (Game.links g) Rational.zero

let validate g ?initial p =
  if Array.length p <> Game.users g then
    invalid_arg "Pure.validate: profile length differs from user count";
  Array.iter
    (fun l -> if l < 0 || l >= Game.links g then invalid_arg "Pure.validate: link out of range")
    p;
  match initial with
  | None -> ()
  | Some t ->
    if Array.length t <> Game.links g then
      invalid_arg "Pure.validate: initial traffic length differs from link count";
    Array.iter
      (fun q -> if Rational.sign q < 0 then invalid_arg "Pure.validate: negative initial traffic")
      t

(* Loads sum per-user contributions (presence-discounted weights);
   for load-linear games the contribution is physically the weight, so
   the seed arithmetic is untouched. *)
let loads g ?initial p =
  let t = match initial with Some t -> Array.copy t | None -> zero_initial g in
  Array.iteri (fun i l -> t.(l) <- Rational.add t.(l) (Game.contribution g i)) p;
  t

let load_on g ?initial p l =
  let base = match initial with Some t -> t.(l) | None -> Rational.zero in
  let acc = ref base in
  Array.iteri (fun k lk -> if lk = l then acc := Rational.add !acc (Game.contribution g k)) p;
  !acc

(* User [i]'s own latency numerators carry its bias w_i − t_i: the user
   is always present for itself. *)
let biased g i q =
  let b = Game.bias g i in
  if Rational.is_zero b then q else Rational.add q b

let latency g ?initial p i =
  let l = p.(i) in
  Rational.div (biased g i (load_on g ?initial p l)) (Game.capacity g i l)

let latency_in_state g p i k =
  let b = Game.belief g i in
  let st = State.state (Belief.space b) k in
  let l = p.(i) in
  Rational.div (biased g i (load_on g p l)) (State.capacity st l)

let expected_latency_via_states g p i =
  let b = Game.belief g i in
  let acc = ref Rational.zero in
  for k = 0 to State.space_size (Belief.space b) - 1 do
    let pk = Belief.prob b k in
    if not (Rational.is_zero pk) then
      acc := Rational.add !acc (Rational.mul pk (latency_in_state g p i k))
  done;
  !acc

let latency_on_link g ?initial p i l =
  let base = load_on g ?initial p l in
  (* Deviation numerator: contribution + bias = w_i, the seed form. *)
  let load = if p.(i) = l then biased g i base else Rational.add base (Game.weight g i) in
  Rational.div load (Game.capacity g i l)

(* Everything below delegates to a transient [View]: materialise the
   loads once, then answer each query against O(1) lookups.  This keeps
   the array-based API while dropping e.g. [is_nash] from O(n²·m) to
   O(n·m); callers issuing many queries against one evolving profile
   should hold a [View.t] themselves instead of re-materialising here. *)

let best_response g ?initial p i = View.best_response_for (View.of_profile g ?initial p) i

let improving_moves g ?initial p i = View.improving_moves (View.of_profile g ?initial p) i

let is_nash g ?initial p = View.is_nash (View.of_profile g ?initial p)

let defectors g ?initial p = View.defectors (View.of_profile g ?initial p)

let social_cost1 g ?initial p = View.social_cost1 (View.of_profile g ?initial p)

let social_cost2 g ?initial p = View.social_cost2 (View.of_profile g ?initial p)

let equal (a : profile) b = a = b
