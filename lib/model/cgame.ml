open Numeric
open Population

type t = Population.t
type profile = int array array

let make_uncertain ~counts ~weights ~uncertainty =
  let k = Array.length counts in
  if k = 0 then invalid_arg "Cgame.make: no classes";
  if Array.length weights <> k || Array.length uncertainty <> k then
    invalid_arg "Cgame.make: one count, weight and belief per class required";
  Population.make "Cgame.make" ~counts ~weights ~uncertainty

let make ~counts ~weights ~beliefs =
  make_uncertain ~counts ~weights ~uncertainty:(Array.map Uncertainty.bayesian beliefs)

let of_capacities ~counts ~weights caps =
  if Array.length caps <> Array.length counts then
    invalid_arg "Cgame.of_capacities: one capacity row per class required";
  let beliefs = Array.map (fun row -> Belief.certain (State.make row)) caps in
  make ~counts ~weights ~beliefs

let kp ~counts ~weights ~capacities =
  let st = State.make capacities in
  let beliefs = Array.map (fun _ -> Belief.certain st) weights in
  make ~counts ~weights ~beliefs

let classes g = Array.length g.counts
let links g = Array.length g.capacities.(0)
let users g = g.users

let check_class name g c =
  if c < 0 || c >= classes g then invalid_arg (Printf.sprintf "Cgame.%s: class out of range" name)

let count g c =
  check_class "count" g c;
  g.counts.(c)

let weight g c =
  check_class "weight" g c;
  g.weights.(c)

let uncertainty g c =
  check_class "uncertainty" g c;
  g.uncertainty.(c)

let contribution g c =
  check_class "contribution" g c;
  g.contribs.(c)

let bias g c =
  check_class "bias" g c;
  g.biases.(c)

let is_load_linear g = g.load_linear

let capacity g c l =
  check_class "capacity" g c;
  if l < 0 || l >= links g then invalid_arg "Cgame.capacity: link out of range";
  g.capacities.(c).(l)

let capacity_row g c =
  check_class "capacity_row" g c;
  Array.copy g.capacities.(c)

let total_traffic g = g.total
let packed_tables g = g.packed
let rows = Population.rows

(* Group by (weight, effective capacity row, contribution), first-seen
   order — the observational identity of a user: two users with this
   triple equal are interchangeable in every latency and every
   predicate (bias = weight − contribution is determined by the pair).
   For load-linear games the contribution equals the weight, so the
   grouping is exactly the seed's (weight, row) key. *)
let compress g =
  let n = Game.users g in
  let reps = ref [] (* class representatives, reversed *) and k = ref 0 in
  let class_of = Array.make n 0 in
  for i = 0 to n - 1 do
    let w = Game.weight g i in
    let t = Game.contribution g i in
    let row = Game.capacity_row g i in
    let rec find idx = function
      | [] -> None
      | (w', t', row', _) :: rest ->
        if Rational.equal w w' && Rational.equal t t' && Array.for_all2 Rational.equal row row'
        then Some (idx - 1)
        else find (idx - 1) rest
    in
    match find !k !reps with
    | Some c -> class_of.(i) <- c
    | None ->
      class_of.(i) <- !k;
      reps := (w, t, row, i) :: !reps;
      incr k
  done;
  let members = Array.make !k 0 in
  Array.iter (fun c -> members.(c) <- members.(c) + 1) class_of;
  let rep_users = Array.make !k 0 in
  List.iteri (fun j (_, _, _, i) -> rep_users.(!k - 1 - j) <- i) !reps;
  let cg =
    make_uncertain ~counts:members
      ~weights:(Array.map (Game.weight g) rep_users)
      ~uncertainty:(Array.map (Game.uncertainty g) rep_users)
  in
  (cg, class_of)

let expand g =
  let weights = Array.make g.users Rational.zero in
  let uncertainty = Array.make g.users g.uncertainty.(0) in
  let pos = ref 0 in
  Array.iteri
    (fun c n ->
      for _ = 1 to n do
        weights.(!pos) <- g.weights.(c);
        uncertainty.(!pos) <- g.uncertainty.(c);
        incr pos
      done)
    g.counts;
  Game.make_uncertain ~weights ~uncertainty

let validate g x =
  if Array.length x <> classes g then
    invalid_arg "Cgame.validate: profile has wrong number of classes";
  let m = links g in
  Array.iteri
    (fun c row ->
      if Array.length row <> m then
        invalid_arg "Cgame.validate: profile row has wrong number of links";
      let sum =
        Array.fold_left
          (fun acc e ->
            if e < 0 then invalid_arg "Cgame.validate: negative assignment count";
            if e > max_int - acc then
              invalid_arg "Cgame.validate: assignment counts overflow a native int";
            acc + e)
          0 row
      in
      if sum <> g.counts.(c) then
        invalid_arg
          (Printf.sprintf "Cgame.validate: class %d assigns %d users, expected %d" c sum
             g.counts.(c)))
    x

let expand_profile g x =
  validate g x;
  let p = Array.make g.users 0 in
  let pos = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun l e ->
          for _ = 1 to e do
            p.(!pos) <- l;
            incr pos
          done)
        row)
    x;
  p

let compress_profile g ~class_of p =
  if Array.length class_of <> Array.length p then
    invalid_arg "Cgame.compress_profile: profile length differs from the class map";
  let k = classes g and m = links g in
  let x = Array.make_matrix k m 0 in
  Array.iteri
    (fun i l ->
      let c = class_of.(i) in
      if c < 0 || c >= k then invalid_arg "Cgame.compress_profile: class out of range";
      if l < 0 || l >= m then invalid_arg "Cgame.compress_profile: link out of range";
      x.(c).(l) <- x.(c).(l) + 1)
    p;
  validate g x;
  x
