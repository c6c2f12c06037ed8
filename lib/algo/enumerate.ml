open Model
open Numeric

let budget = 10_000_000

let guard name g =
  ignore
    (Combinat.search_space ~who:("Enumerate." ^ name) ~what:"pure profiles" ~budget
       (Game.links g) (Game.users g))

(* The exhaustive scans ride [View.sweep]: the odometer applies O(1)
   load deltas between consecutive profiles, so checking a profile is
   the O(n·m) [View.is_nash] pass instead of the seed's O(n²·m)
   recompute-per-user. *)
let pure_nash g =
  guard "pure_nash" g;
  let acc = ref [] in
  View.sweep g (fun v -> if View.is_nash v then acc := View.profile v :: !acc);
  List.rev !acc

let count g =
  guard "count" g;
  let acc = ref 0 in
  View.sweep g (fun v -> if View.is_nash v then incr acc);
  !acc

let exists g =
  guard "exists" g;
  let exception Found in
  try
    View.sweep g (fun v -> if View.is_nash v then raise Found);
    false
  with Found -> true

let extremal_nash g ~cost =
  match pure_nash g with
  | [] -> None
  | first :: rest ->
    let value = cost g first in
    let better lo hi p =
      let v = cost g p in
      let lo = if Rational.compare v (snd lo) < 0 then (p, v) else lo in
      let hi = if Rational.compare v (snd hi) > 0 then (p, v) else hi in
      (lo, hi)
    in
    let lo, hi =
      List.fold_left (fun (lo, hi) p -> better lo hi p) ((first, value), (first, value)) rest
    in
    Some (lo, hi)
