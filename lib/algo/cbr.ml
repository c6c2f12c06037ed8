open Model
open Numeric

type outcome = {
  profile : Cgame.profile;
  steps : int;
  users_moved : int;
  converged : bool;
}

(* Cumulative rounding: link l gets upto_l − upto_{l−1} users, where
   upto_l = ⌊count·(a_0 + … + a_l) / (a_0 + … + a_{m−1})⌋ and a is the
   capacity row scaled to integers by the lcm of its denominators —
   the same ratio as the capacity prefix sums, so the same counts, in
   integer division.  Exact, non-negative, sums to count, and tracks
   the capacity proportions within one user. *)
let proportional_start g =
  let k = Cgame.classes g in
  Array.init k (fun c ->
      let row = Packing.lift (Cgame.capacity_row g c) in
      let count = Bigint.of_int (Cgame.count g c) in
      let cum = ref Bigint.zero and prev = ref 0 in
      Array.map
        (fun a ->
          cum := Bigint.add !cum a;
          let upto = Bigint.to_int_exn (Bigint.div (Bigint.mul count !cum) row.mass) in
          let here = upto - !prev in
          prev := upto;
          here)
        row.nums)

(* The budget is checked only when a defector is found, so a run that
   needs exactly [max_steps] moves still converges. *)
let converge_in_place ~max_steps v =
  if max_steps < 0 then invalid_arg "Cbr.converge_in_place: max_steps must be non-negative";
  let rec loop steps users_moved =
    match Cview.first_defector v with
    | None -> (steps, users_moved, true)
    | Some _ when steps >= max_steps -> (steps, users_moved, false)
    | Some (cls, src, dst) ->
      (* first_defector guarantees the first mover improves, so the
         maximal block is ≥ 1 and progress is made every step. *)
      let count = Cview.max_improving_block v ~cls ~src ~dst in
      Cview.move v ~cls ~src ~dst ~count;
      loop (steps + 1) (users_moved + count)
  in
  loop 0 0

let converge ?(max_steps = 1_000_000) g x =
  if max_steps <= 0 then invalid_arg "Cbr.converge: max_steps must be positive";
  let v = Cview.of_profile g x in
  let steps, users_moved, converged = converge_in_place ~max_steps v in
  { profile = Cview.profile v; steps; users_moved; converged }
