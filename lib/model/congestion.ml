open Numeric

let require_kp name g =
  if not (Game.is_kp g) then
    invalid_arg (Printf.sprintf "Congestion.%s: the classical social cost needs a KP instance" name)

let check_caps who ~links caps =
  let m = Array.length caps in
  if m = 0 || m > links then
    invalid_arg
      (Printf.sprintf "Congestion.%s: %d capacities for %d load coordinates" who m links)

(* The argmax link is found by exact cross comparison (no quotient is
   built, no gcd is taken), then divided out once. *)
let max_relative_load ~loads ~caps =
  check_caps "max_relative_load" ~links:(Array.length loads) caps;
  let best = ref 0 in
  for l = 1 to Array.length caps - 1 do
    if Rational.compare_div loads.(l) caps.(l) loads.(!best) caps.(!best) > 0 then best := l
  done;
  Rational.div loads.(!best) caps.(!best)

let max_congestion g sigma =
  require_kp "max_congestion" g;
  Pure.validate g sigma;
  max_relative_load ~loads:(Pure.loads g sigma) ~caps:(Game.capacity_row g 0)

(* On the lattice load_l = K_l/L, and the reciprocal capacities are
   integers u_l over one denominator C (1/c_l = u_l/C), so
   load_l/c_l = K_l·u_l/(L·C): the max is taken over integers and the
   expectation is reduced once. *)
let expected_max_relative_load d ~caps =
  check_caps "expected_max_relative_load" ~links:(Load_dist.links d) caps;
  let inv = Packing.lift (Array.map Rational.inv caps) in
  Load_dist.expect_scaled d
    ~over:(Bigint.mul (Load_dist.scale d) inv.den)
    (Load_dist.Max_weighted inv.nums)

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
  expected_max_relative_load (Load_dist.of_mixed g p) ~caps:(Game.capacity_row g 0)

let budget = 1_000_000

let optimum g =
  require_kp "optimum" g;
  let caps = Game.capacity_row g 0 in
  Social.minimise ~who:"Congestion.optimum" ~budget g (fun loads _ _ ->
      max_relative_load ~loads ~caps)
