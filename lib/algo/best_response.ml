open Model
open Numeric

type policy = First_defector | Last_defector | Best_improvement

type outcome = { profile : Pure.profile; steps : int; converged : bool }

(* One pass over the users picks the mover and its best-response target
   under [policy].  Each user costs one O(m) [best_response_for] scan
   against the view's O(1) loads; the seed path listed the defectors
   first and then recomputed the best response of the chosen one — two
   O(n·m·n) traversals per step.  [First_defector] exits at the first
   hit; [Last_defector] remembers the latest hit in the same single
   pass (the seed walked the whole defector list a second time with
   [List.nth]).  [Best_improvement] keeps the first user attaining the
   strictly largest gain, matching the seed's fold tie-breaking. *)
let choose_move v ~policy =
  let n = View.users v in
  match policy with
  | First_defector ->
    let rec scan i =
      if i >= n then None
      else
        let target, best = View.best_response_for v i in
        if Rational.compare best (View.latency v i) < 0 then Some (i, target) else scan (i + 1)
    in
    scan 0
  | Last_defector ->
    let found = ref None in
    for i = 0 to n - 1 do
      let target, best = View.best_response_for v i in
      if Rational.compare best (View.latency v i) < 0 then found := Some (i, target)
    done;
    !found
  | Best_improvement ->
    let found = ref None and best_gain = ref Rational.zero in
    for i = 0 to n - 1 do
      let target, best = View.best_response_for v i in
      let gain = Rational.sub (View.latency v i) best in
      if Rational.sign gain > 0 && Rational.compare gain !best_gain > 0 then begin
        found := Some (i, target);
        best_gain := gain
      end
    done;
    !found

let step g ?initial ~policy p =
  let v = View.of_profile g ?initial p in
  match choose_move v ~policy with
  | None -> None
  | Some (mover, target) ->
    let next = Array.copy p in
    next.(mover) <- target;
    Some next

let converge g ?initial ?(policy = First_defector) ~max_steps p =
  let v = View.of_profile g ?initial p in
  let rec go steps =
    if steps >= max_steps then { profile = View.profile v; steps; converged = View.is_nash v }
    else
      match choose_move v ~policy with
      | None -> { profile = View.profile v; steps; converged = true }
      | Some (mover, target) ->
        View.move v mover target;
        go (steps + 1)
  in
  go 0
