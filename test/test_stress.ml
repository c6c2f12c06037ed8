(* Stress tests: larger sizes than the randomised suites use, checking
   that the implementations hold up and stay exact at scale. *)

open Model
open Numeric

let test_uniform_large () =
  (* 5000 users on 16 links: A_uniform is O(n(log n + m)). *)
  let n = 5000 and m = 16 in
  let rng = Prng.Rng.create 1 in
  let g =
    Experiments.Generators.game rng ~n ~m
      ~weights:(Experiments.Generators.Integer_weights 50)
      ~beliefs:(Experiments.Generators.Uniform_link_view { cap_bound = 9 })
  in
  let sigma = Algo.Uniform_beliefs.solve g in
  (* Checking the full Nash property is O(n·m) exact divisions. *)
  Alcotest.(check bool) "large LPT instance is a NE" true (Pure.is_nash g sigma)

let test_two_links_large () =
  let n = 400 in
  let rng = Prng.Rng.create 2 in
  let g =
    Experiments.Generators.game rng ~n ~m:2
      ~weights:(Experiments.Generators.Integer_weights 20)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 12 })
  in
  let sigma = Algo.Two_links.solve g in
  Alcotest.(check bool) "400-user two-link instance is a NE" true (Pure.is_nash g sigma)

let test_symmetric_large () =
  let n = 300 and m = 8 in
  let rng = Prng.Rng.create 3 in
  let g =
    Experiments.Generators.game rng ~n ~m ~weights:Experiments.Generators.Unit_weights
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 12 })
  in
  let sigma, moves = Algo.Symmetric.solve_with_stats g in
  Alcotest.(check bool) "300-user symmetric instance is a NE" true (Pure.is_nash g sigma);
  Alcotest.(check bool) "moves within the n(n-1)/2 bound" true (moves <= n * (n - 1) / 2)

let test_fmne_large () =
  let n = 64 and m = 16 in
  let rng = Prng.Rng.create 4 in
  let g =
    Experiments.Generators.game rng ~n ~m
      ~weights:(Experiments.Generators.Integer_weights 9)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 9 })
  in
  let candidate = Algo.Fully_mixed.candidate g in
  Alcotest.(check bool) "64x16 candidate rows sum to one" true
    (Array.for_all (fun row -> Rational.equal (Qvec.sum row) Rational.one) candidate)

let test_bignat_huge () =
  (* 10 000-digit numbers: string I/O and the division invariant. *)
  let digits k seed =
    String.init k (fun i -> Char.chr (Char.code '0' + ((seed + (7 * i) + (i * i mod 11)) mod 10)))
  in
  let sa = "9" ^ digits 9_999 3 and sb = "7" ^ digits 4_999 5 in
  let a = Bignat.of_string sa and b = Bignat.of_string sb in
  Alcotest.(check int) "a has 10000 digits" 10_000 (String.length (Bignat.to_string a));
  let quot, rem = Bignat.divmod a b in
  Alcotest.(check bool) "division invariant at 10k digits" true
    (Bignat.equal a (Bignat.add (Bignat.mul quot b) rem) && Bignat.compare rem b < 0);
  (* Both products multiply operands of more than 500 limbs; the seed
     tower's loop is the oracle. *)
  let seed_mul x y = Reference.Nat.(to_string (mul (of_string x) (of_string y))) in
  let product = Bignat.mul a b in
  Alcotest.(check string) "a * b matches the seed tower" (seed_mul sa sb) (Bignat.to_string product);
  let sq = Bignat.to_string quot in
  Alcotest.(check string) "quot * b matches the seed tower" (seed_mul sq sb)
    (Bignat.to_string (Bignat.mul quot b));
  Alcotest.(check bool) "a * b round trips through decimal" true
    (Bignat.equal product (Bignat.of_string (Bignat.to_string product)))

let test_alias_many_categories () =
  let k = 100_000 in
  let rng = Prng.Rng.create 6 in
  let weights = Array.init k (fun i -> Rational.of_int (1 + (i mod 17))) in
  let alias = Prng.Alias.of_rationals weights in
  for _ = 1 to 10_000 do
    let i = Prng.Alias.sample alias rng in
    if i < 0 || i >= k then Alcotest.fail "sample out of range"
  done

let test_enumerate_medium () =
  (* n=10 users on 2 links: 1024 profiles, exact NE filter. *)
  let rng = Prng.Rng.create 7 in
  let g =
    Experiments.Generators.game rng ~n:10 ~m:2
      ~weights:(Experiments.Generators.Integer_weights 6)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 8 })
  in
  Alcotest.(check bool) "pure NE exists at n=10" true (Algo.Enumerate.exists g)

let test_bb_optimum_medium () =
  (* The branch-and-bound optimum handles n=12 on 3 links (3^12 ≈ 531k
     leaves, pruned heavily); cross-check SC at the argmin. *)
  let rng = Prng.Rng.create 8 in
  let g =
    Experiments.Generators.game rng ~n:12 ~m:3
      ~weights:(Experiments.Generators.Integer_weights 9)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 9 })
  in
  let v1, p1 = Social.opt1 g in
  Alcotest.(check bool) "argmin consistent" true
    (Rational.equal v1 (Pure.social_cost1 g p1));
  let v2, p2 = Social.opt2 g in
  Alcotest.(check bool) "argmin consistent (max)" true
    (Rational.equal v2 (Pure.social_cost2 g p2))

let suite =
  [
    ("A_uniform with 5000 users", `Slow, test_uniform_large);
    ("A_twolinks with 400 users", `Slow, test_two_links_large);
    ("A_symmetric with 300 users", `Slow, test_symmetric_large);
    ("FMNE candidate at 64x16", `Slow, test_fmne_large);
    ("bignat at 10k digits", `Slow, test_bignat_huge);
    ("alias with 100k categories", `Slow, test_alias_many_categories);
    ("enumeration at n=10", `Slow, test_enumerate_medium);
    ("branch-and-bound at n=12", `Slow, test_bb_optimum_medium);
  ]

let () = Alcotest.run "stress" [ ("stress", suite) ]
