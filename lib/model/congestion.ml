open Numeric

let require_kp name g =
  if not (Game.is_kp g) then
    invalid_arg (Printf.sprintf "Congestion.%s: the classical social cost needs a KP instance" name)

(* The argmax link is found by exact cross comparison (no quotient is
   built, no gcd is taken), then divided out once. *)
let max_relative_load ~loads ~caps =
  let best = ref 0 in
  for l = 1 to Array.length caps - 1 do
    if Rational.compare_div loads.(l) caps.(l) loads.(!best) caps.(!best) > 0 then best := l
  done;
  Rational.div loads.(!best) caps.(!best)

let max_congestion g sigma =
  require_kp "max_congestion" g;
  Pure.validate g sigma;
  max_relative_load ~loads:(Pure.loads g sigma) ~caps:(Game.capacity_row g 0)

(* The expectation no longer sweeps the m^n realisations: the product
   measure is pushed forward to the distribution of the load vector
   (Load_dist), whose user-class DP merges equal-load realisations, so
   Load_dist's state limit bounds distinct load states instead of m^n.
   The result is bit-identical to the seed sweep (exact arithmetic
   throughout); test/test_load_dist.ml pins that equality
   differentially. *)
let expected_max_congestion g p =
  require_kp "expected_max_congestion" g;
  Mixed.validate g p;
  let caps = Game.capacity_row g 0 in
  Load_dist.expect (Load_dist.of_mixed g p) (fun loads -> max_relative_load ~loads ~caps)

let estimate g p ~samples rng =
  require_kp "estimate" g;
  Mixed.validate g p;
  if samples <= 0 then invalid_arg "Congestion.estimate: samples must be positive";
  let samplers = Array.map Prng.Alias.of_rationals p in
  let n = Game.users g in
  let sigma = Array.make n 0 in
  (* The sample sum stays exact; one float conversion at the end, so
     the estimator's only error is sampling error, not accumulated
     rounding drift. *)
  let acc = ref Rational.zero in
  for _ = 1 to samples do
    for i = 0 to n - 1 do
      sigma.(i) <- Prng.Alias.sample samplers.(i) rng
    done;
    acc := Rational.add !acc (max_congestion g sigma)
  done;
  Rational.to_float (Rational.div !acc (Rational.of_int samples))

let budget = 1_000_000

let optimum g =
  require_kp "optimum" g;
  let caps = Game.capacity_row g 0 in
  Social.minimise ~who:"Congestion.optimum" ~budget g (fun loads _ _ ->
      max_relative_load ~loads ~caps)
