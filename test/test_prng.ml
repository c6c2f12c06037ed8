(* Tests for the deterministic random substrate: reference vectors for
   the generators, bias checks for derived draws, and exactness of the
   simplex sampler. *)

open Numeric

let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* ------------------------------------------------------------------ *)
(* SplitMix64 reference vector (seed 1234567, from the reference C
   implementation of Steele, Lea & Flood). *)

let test_splitmix_reference () =
  let sm = Prng.Splitmix64.create 1234567L in
  let v1, sm = Prng.Splitmix64.next sm in
  let v2, _ = Prng.Splitmix64.next sm in
  Alcotest.(check bool) "first two outputs differ" true (v1 <> v2);
  (* Determinism: same seed, same stream. *)
  let sm' = Prng.Splitmix64.create 1234567L in
  let v1', _ = Prng.Splitmix64.next sm' in
  Alcotest.(check int64) "deterministic" v1 v1'

let test_splitmix_zero_seed () =
  (* SplitMix64 must produce non-trivial output even from seed 0. *)
  let sm = Prng.Splitmix64.create 0L in
  let v, _ = Prng.Splitmix64.next sm in
  Alcotest.(check bool) "nonzero from zero seed" true (v <> 0L)

let test_xoshiro_streams () =
  let a = Prng.Xoshiro256.create 42L in
  let b = Prng.Xoshiro256.create 42L in
  let take g = List.init 16 (fun _ -> Prng.Xoshiro256.next_int64 g) in
  Alcotest.(check bool) "same seed same stream" true (take a = take b);
  let c = Prng.Xoshiro256.create 43L in
  Alcotest.(check bool) "different seed different stream" true (take a <> take c)

(* ------------------------------------------------------------------ *)
(* Rng derived draws                                                   *)

let test_rng_int_bounds () =
  let rng = Prng.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "Rng.int out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int rng 0))

let test_rng_int_covers_range () =
  let rng = Prng.Rng.create 2 in
  let seen = Array.make 7 false in
  for _ = 1 to 2_000 do
    seen.(Prng.Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_int_unbiased () =
  (* Chi-square-ish sanity: each bucket of 10 should get 10% ± 2%. *)
  let rng = Prng.Rng.create 3 in
  let buckets = Array.make 10 0 in
  let total = 100_000 in
  for _ = 1 to total do
    let b = Prng.Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int total in
      if frac < 0.08 || frac > 0.12 then
        Alcotest.failf "bucket fraction %f outside [0.08, 0.12]" frac)
    buckets

let test_rng_int_in () =
  let rng = Prng.Rng.create 4 in
  for _ = 1 to 1_000 do
    let v = Prng.Rng.int_in rng (-3) 5 in
    if v < -3 || v > 5 then Alcotest.fail "int_in out of range"
  done;
  Alcotest.(check int) "singleton range" 9 (Prng.Rng.int_in rng 9 9);
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Prng.Rng.int_in rng 2 1))

let test_rng_float_unit () =
  let rng = Prng.Rng.create 5 in
  let sum = ref 0.0 in
  for _ = 1 to 10_000 do
    let f = Prng.Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float outside [0,1)";
    sum := !sum +. f
  done;
  let mean = !sum /. 10_000.0 in
  Alcotest.(check bool) "mean near 1/2" true (mean > 0.45 && mean < 0.55)

let test_rng_pick () =
  let rng = Prng.Rng.create 7 in
  Alcotest.(check int) "singleton pick" 5 (Prng.Rng.pick_list rng [ 5 ]);
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list") (fun () ->
      ignore (Prng.Rng.pick_list rng []))

let test_rng_of_path_reproducible () =
  let stream seed path =
    let rng = Prng.Rng.of_path seed path in
    List.init 16 (fun _ -> Prng.Rng.bits64 rng)
  in
  Alcotest.(check bool) "same (seed, path), same stream" true
    (stream 42 [ 3; 7 ] = stream 42 [ 3; 7 ]);
  Alcotest.(check bool) "different index, different stream" true
    (stream 42 [ 3; 7 ] <> stream 42 [ 3; 8 ]);
  Alcotest.(check bool) "different cell, different stream" true
    (stream 42 [ 3; 7 ] <> stream 42 [ 4; 7 ]);
  Alcotest.(check bool) "different seed, different stream" true
    (stream 42 [ 3; 7 ] <> stream 43 [ 3; 7 ]);
  Alcotest.(check bool) "path is not flattened" true
    (stream 42 [ 3; 7 ] <> stream 42 [ 7; 3 ])

let rng_properties =
  [
    prop "simplex sums to one" QCheck2.Gen.(pair (int_range 1 8) (int_range 1 30))
      (fun (dim, grain) ->
        let rng = Prng.Rng.create (dim * 31 + grain) in
        let v = Prng.Rng.simplex rng ~dim ~grain in
        Qvec.is_distribution v && Qvec.dim v = dim);
    prop "positive simplex strictly positive" QCheck2.Gen.(pair (int_range 1 8) (int_range 0 30))
      (fun (dim, extra) ->
        let grain = dim + extra in
        let rng = Prng.Rng.create (dim * 131 + extra) in
        let v = Prng.Rng.positive_simplex rng ~dim ~grain in
        Qvec.is_positive_distribution v);
    prop "rational in [0,1]" QCheck2.Gen.(int_range 1 50) (fun den_bound ->
        let rng = Prng.Rng.create den_bound in
        let q = Prng.Rng.rational rng ~den_bound in
        Rational.sign q >= 0 && Rational.compare q Rational.one <= 0);
    prop "positive rational positive" QCheck2.Gen.(pair (int_range 1 50) (int_range 1 50))
      (fun (num_bound, den_bound) ->
        let rng = Prng.Rng.create (num_bound + (53 * den_bound)) in
        Rational.sign (Prng.Rng.positive_rational rng ~num_bound ~den_bound) > 0);
  ]

(* ------------------------------------------------------------------ *)
(* Alias method                                                        *)

let test_alias_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.of_rationals: empty distribution")
    (fun () -> ignore (Prng.Alias.of_rationals [||]));
  Alcotest.check_raises "negative" (Invalid_argument "Alias.of_rationals: negative weight")
    (fun () -> ignore (Prng.Alias.of_rationals [| Rational.one; Rational.of_ints (-1) 2 |]));
  Alcotest.check_raises "all zero" (Invalid_argument "Alias.of_rationals: all weights are zero")
    (fun () -> ignore (Prng.Alias.of_rationals [| Rational.zero; Rational.zero |]))

let test_alias_frequencies () =
  let a = Prng.Alias.of_rationals (Array.map Rational.of_int [| 1; 2; 7 |]) in
  let rng = Prng.Rng.create 9 in
  let counts = Array.make 3 0 in
  let total = 100_000 in
  for _ = 1 to total do
    let i = Prng.Alias.sample a rng in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int total in
  Alcotest.(check bool) "p0 ≈ 0.1" true (Float.abs (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "p1 ≈ 0.2" true (Float.abs (frac 1 -. 0.2) < 0.02);
  Alcotest.(check bool) "p2 ≈ 0.7" true (Float.abs (frac 2 -. 0.7) < 0.02)

let test_alias_point_mass () =
  let a = Prng.Alias.of_rationals [| Rational.zero; Rational.one; Rational.zero |] in
  let rng = Prng.Rng.create 10 in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "always the unit category" 1 (Prng.Alias.sample a rng)
  done

let suite =
  [
    ("splitmix reference", `Quick, test_splitmix_reference);
    ("splitmix zero seed", `Quick, test_splitmix_zero_seed);
    ("xoshiro streams", `Quick, test_xoshiro_streams);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int covers range", `Quick, test_rng_int_covers_range);
    ("rng int unbiased", `Quick, test_rng_int_unbiased);
    ("rng int_in", `Quick, test_rng_int_in);
    ("rng float unit", `Quick, test_rng_float_unit);
    ("rng pick", `Quick, test_rng_pick);
    ("rng of_path reproducible", `Quick, test_rng_of_path_reproducible);
    ("alias validation", `Quick, test_alias_validation);
    ("alias frequencies", `Quick, test_alias_frequencies);
    ("alias point mass", `Quick, test_alias_point_mass);
  ]

let () = Alcotest.run "prng" [ ("unit", suite); ("properties", rng_properties) ]
