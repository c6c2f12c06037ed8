(* Tests for the Gairing–Monien–Tiemann baseline: the KP-model with
   incomplete information about user traffics ([8] in the paper). *)

open Numeric

let qi = Rational.of_int
let q = Rational.of_ints
let check_q = Alcotest.testable Rational.pp Rational.equal

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

(* Two links; user 0 is small with certainty, user 1 is large with
   probability 1/2. *)
let fixture () =
  Kp.Bayesian.make
    ~capacities:[| qi 2; qi 1 |]
    ~types:[| [ (qi 1, Rational.one) ]; [ (qi 1, q 1 2); (qi 4, q 1 2) ] |]

let test_validation () =
  Alcotest.check_raises "one link" (Invalid_argument "Bayesian.make: at least two links required")
    (fun () -> ignore (Kp.Bayesian.make ~capacities:[| qi 1 |] ~types:[| [ (qi 1, Rational.one) ] |]));
  Alcotest.check_raises "empty types" (Invalid_argument "Bayesian.make: empty type list")
    (fun () -> ignore (Kp.Bayesian.make ~capacities:[| qi 1; qi 1 |] ~types:[| [] |]));
  Alcotest.check_raises "bad distribution"
    (Invalid_argument "Bayesian.make: type probabilities must form a distribution") (fun () ->
      ignore
        (Kp.Bayesian.make ~capacities:[| qi 1; qi 1 |] ~types:[| [ (qi 1, q 1 3) ] |]));
  Alcotest.check_raises "bad traffic" (Invalid_argument "Bayesian.make: traffics must be positive")
    (fun () ->
      ignore
        (Kp.Bayesian.make ~capacities:[| qi 1; qi 1 |] ~types:[| [ (qi 0, Rational.one) ] |]))

let test_expected_load () =
  let t = fixture () in
  (* Strategy: user 0 always link 0; user 1 type0→0, type1→1. *)
  let s = [| [| 0 |]; [| 0; 1 |] |] in
  (* From user 0's view: foreign load on link 0 = (1/2)·1 = 1/2; on
     link 1 = (1/2)·4 = 2. *)
  Alcotest.check check_q "foreign on 0" (q 1 2) (Kp.Bayesian.expected_foreign_load t s ~user:0 0);
  Alcotest.check check_q "foreign on 1" (qi 2) (Kp.Bayesian.expected_foreign_load t s ~user:0 1);
  (* Its latency on link 0: (1 + 1/2)/2 = 3/4. *)
  Alcotest.check check_q "latency" (q 3 4) (Kp.Bayesian.latency t s ~user:0 ~ty:0 0)

let test_solve_converges () =
  let t = fixture () in
  let s = Kp.Bayesian.solve t in
  Alcotest.(check bool) "solution is a Bayesian NE" true (Kp.Bayesian.is_nash t s)

let test_exhaustive_guard () =
  (* Ten users with two types each on two links: 2^20 strategies. *)
  let t =
    Kp.Bayesian.make ~capacities:[| qi 2; qi 1 |]
      ~types:(Array.make 10 [ (qi 1, q 1 2); (qi 4, q 1 2) ])
  in
  Alcotest.check_raises "budget"
    (Invalid_argument "Bayesian.exists_pure_nash: 2^20 strategies exceed the limit 1000000")
    (fun () -> ignore (Kp.Bayesian.exists_pure_nash t))

let bayesian_properties =
  [
    prop "best-response dynamics reach a Bayesian NE ([8])" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let t = Kp.Bayesian.random rng ~n:3 ~m:3 ~max_types:3 ~bound:6 in
        Kp.Bayesian.is_nash t (Kp.Bayesian.solve t));
    prop "a pure Bayesian NE always exists ([8], exhaustive check)" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let t = Kp.Bayesian.random rng ~n:3 ~m:2 ~max_types:2 ~bound:5 in
        Kp.Bayesian.exists_pure_nash t);
    prop "single-type instances behave like complete-information KP" seed_gen (fun seed ->
        (* With one type per user the Bayesian game is the KP game: the
           equilibrium strategy of [solve] must match a pure NE of the
           corresponding Game.kp instance. *)
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
        let caps = Array.init m (fun _ -> qi (Prng.Rng.int_in rng 1 5)) in
        let weights = Array.init n (fun _ -> qi (Prng.Rng.int_in rng 1 5)) in
        let bay =
          Kp.Bayesian.make ~capacities:caps
            ~types:(Array.map (fun w -> [ (w, Rational.one) ]) weights)
        in
        let s = Kp.Bayesian.solve bay in
        let profile = Array.map (fun row -> row.(0)) s in
        let g = Model.Game.kp ~weights ~capacities:caps in
        Model.Pure.is_nash g profile);
  ]

let suite =
  [
    ("validation", `Quick, test_validation);
    ("expected load and latency", `Quick, test_expected_load);
    ("solve converges", `Quick, test_solve_converges);
    ("exhaustive guard", `Quick, test_exhaustive_guard);
  ]

let () = Alcotest.run "bayesian" [ ("unit", suite); ("properties", bayesian_properties) ]
