open Model
open Numeric

type outcome = { profile : Pure.profile; steps : int; converged : bool }

(* One pass over the users picks the mover — the lowest-index defector —
   and its best-response target.  Each user costs one O(m)
   [best_response_for] scan against the view's O(1) loads. *)
let choose_move v =
  let n = View.users v in
  let rec scan i =
    if i >= n then None
    else
      let target, best = View.best_response_for v i in
      if Rational.compare best (View.latency v i) < 0 then Some (i, target) else scan (i + 1)
  in
  scan 0

let step g ?initial p =
  let v = View.of_profile g ?initial p in
  match choose_move v with
  | None -> None
  | Some (mover, target) ->
    let next = Array.copy p in
    next.(mover) <- target;
    Some next

let converge g ?initial ~max_steps p =
  let v = View.of_profile g ?initial p in
  let rec go steps =
    if steps >= max_steps then { profile = View.profile v; steps; converged = View.is_nash v }
    else
      match choose_move v with
      | None -> { profile = View.profile v; steps; converged = true }
      | Some (mover, target) ->
        View.move v mover target;
        go (steps + 1)
  in
  go 0
