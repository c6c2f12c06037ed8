(* Tests for the exact numeric tower: Bignat, Bigint, Rational, Qvec.
   Differential testing against native-int oracles plus algebraic laws
   on values far beyond the native range. *)

open Numeric

let bn = Bignat.of_int
let bi = Bigint.of_int
let q = Rational.of_ints

let check_bn =
  Alcotest.testable (fun ppf n -> Format.pp_print_string ppf (Bignat.to_string n)) Bignat.equal
let check_bi =
  Alcotest.testable (fun ppf n -> Format.pp_print_string ppf (Bigint.to_string n)) Bigint.equal
let check_q = Alcotest.testable Rational.pp Rational.equal

(* ------------------------------------------------------------------ *)
(* Bignat unit tests                                                   *)

let test_bignat_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (Bignat.to_int_opt (bn n)))
    [ 0; 1; 2; 1073741823; 1073741824; max_int ]

let test_bignat_of_string () =
  Alcotest.check check_bn "small" (bn 12345) (Bignat.of_string "12345");
  Alcotest.check check_bn "separators" (bn 1234567) (Bignat.of_string "1_234_567");
  Alcotest.check check_bn "leading zeros" (bn 42) (Bignat.of_string "0042");
  let big = Bignat.of_string "123456789012345678901234567890" in
  Alcotest.(check string) "roundtrip" "123456789012345678901234567890" (Bignat.to_string big);
  Alcotest.check_raises "empty" (Invalid_argument "Bignat.of_string: \"\"") (fun () ->
      ignore (Bignat.of_string ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bignat.of_string: \"12x\"") (fun () ->
      ignore (Bignat.of_string "12x"))

let test_bignat_add_sub () =
  Alcotest.check check_bn "1+1" (bn 2) (Bignat.add (bn 1) (bn 1));
  Alcotest.check check_bn "carry chain"
    (Bignat.of_string "2147483648")
    (Bignat.add (bn 1073741824) (bn 1073741824));
  Alcotest.check check_bn "a-b" (bn 58) (Bignat.sub (bn 100) (bn 42));
  Alcotest.check check_bn "a-a" (bn 0) (Bignat.sub (bn 7) (bn 7));
  Alcotest.check_raises "underflow" (Invalid_argument "Bignat.sub: underflow") (fun () ->
      ignore (Bignat.sub (bn 1) (bn 2)))

let test_bignat_mul () =
  Alcotest.check check_bn "0*x" (bn 0) (Bignat.mul (bn 0) (bn 99));
  Alcotest.check check_bn "square of 10^15"
    (Bignat.of_string "1000000000000000000000000000000")
    (Bignat.mul (Bignat.of_string "1000000000000000") (Bignat.of_string "1000000000000000"))

let test_bignat_divmod () =
  let a = Bignat.of_string "123456789012345678901234567890123456789" in
  let b = Bignat.of_string "987654321098765432109" in
  let quot, rem = Bignat.divmod a b in
  Alcotest.check check_bn "reconstruct" a (Bignat.add (Bignat.mul quot b) rem);
  Alcotest.(check bool) "rem < b" true (Bignat.compare rem b < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignat.divmod (bn 1) (bn 0)));
  let quot, rem = Bignat.divmod (bn 17) (bn 5) in
  Alcotest.check check_bn "17/5" (bn 3) quot;
  Alcotest.check check_bn "17 mod 5" (bn 2) rem

let test_bignat_gcd_pow () =
  Alcotest.check check_bn "gcd(12,18)" (bn 6) (Bignat.gcd (bn 12) (bn 18));
  Alcotest.check check_bn "gcd(x,0)" (bn 5) (Bignat.gcd (bn 5) (bn 0));
  Alcotest.check check_bn "gcd(0,x)" (bn 5) (Bignat.gcd (bn 0) (bn 5));
  Alcotest.check check_bn "2^100"
    (Bignat.of_string "1267650600228229401496703205376")
    (Bignat.pow (bn 2) 100);
  Alcotest.check check_bn "x^0" (bn 1) (Bignat.pow (bn 7) 0)

let test_bignat_shifts () =
  Alcotest.check check_bn "1 << 95" (Bignat.pow (bn 2) 95) (Bignat.shift_left (bn 1) 95);
  Alcotest.check check_bn "shift round trip" (bn 12345)
    (Bignat.shift_right (Bignat.shift_left (bn 12345) 77) 77);
  Alcotest.(check int) "num_bits 0" 0 (Bignat.num_bits (bn 0));
  Alcotest.(check int) "num_bits 1" 1 (Bignat.num_bits (bn 1));
  Alcotest.(check int) "num_bits 2^95" 96 (Bignat.num_bits (Bignat.pow (bn 2) 95))

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)

let test_bigint_basic () =
  Alcotest.check check_bi "neg" (bi (-5)) (Bigint.neg (bi 5));
  Alcotest.check check_bi "add mixed" (bi (-2)) (Bigint.add (bi 3) (bi (-5)));
  Alcotest.check check_bi "mul signs" (bi (-15)) (Bigint.mul (bi 3) (bi (-5)));
  Alcotest.check check_bi "mul negs" (bi 15) (Bigint.mul (bi (-3)) (bi (-5)));
  Alcotest.(check int) "sign neg" (-1) (Bigint.sign (bi (-7)));
  Alcotest.(check int) "sign zero" 0 (Bigint.sign Bigint.zero);
  Alcotest.(check string) "to_string" "-42" (Bigint.to_string (bi (-42)));
  Alcotest.check check_bi "of_string neg" (bi (-42)) (Bigint.of_string "-42");
  Alcotest.check check_bi "of_string plus" (bi 42) (Bigint.of_string "+42")

let test_bigint_min_int () =
  let m = Bigint.of_int min_int in
  Alcotest.(check (option int)) "min_int round trip" (Some min_int) (Bigint.to_int_opt m);
  Alcotest.(check (option int)) "max_int round trip" (Some max_int)
    (Bigint.to_int_opt (Bigint.of_int max_int));
  Alcotest.(check (option int)) "overflow" None
    (Bigint.to_int_opt (Bigint.add (Bigint.of_int max_int) Bigint.one))

let test_bigint_divmod_signs () =
  (* Truncated division: quotient toward zero, remainder keeps the
     dividend's sign. *)
  let cases = [ (7, 2, 3, 1); (-7, 2, -3, -1); (7, -2, -3, 1); (-7, -2, 3, -1) ] in
  List.iter
    (fun (a, b, expect_q, expect_r) ->
      let quot, rem = Bigint.divmod (bi a) (bi b) in
      Alcotest.check check_bi (Printf.sprintf "%d / %d" a b) (bi expect_q) quot;
      Alcotest.check check_bi (Printf.sprintf "%d mod %d" a b) (bi expect_r) rem)
    cases

(* ------------------------------------------------------------------ *)
(* Rational unit tests                                                 *)

let test_rational_normalisation () =
  Alcotest.check check_q "6/8 = 3/4" (q 3 4) (q 6 8);
  Alcotest.check check_q "neg den" (q (-1) 2) (q 1 (-2));
  Alcotest.check check_q "0/x" Rational.zero (q 0 17);
  Alcotest.(check string) "pp int" "5" (Rational.to_string (q 10 2));
  Alcotest.(check string) "pp frac" "-3/7" (Rational.to_string (q 3 (-7)))

let test_rational_arith () =
  Alcotest.check check_q "1/2 + 1/3" (q 5 6) (Rational.add (q 1 2) (q 1 3));
  Alcotest.check check_q "1/2 - 1/3" (q 1 6) (Rational.sub (q 1 2) (q 1 3));
  Alcotest.check check_q "2/3 * 3/4" (q 1 2) (Rational.mul (q 2 3) (q 3 4));
  Alcotest.check check_q "(1/2) / (3/4)" (q 2 3) (Rational.div (q 1 2) (q 3 4));
  Alcotest.check check_q "inv" (q 7 3) (Rational.inv (q 3 7));
  Alcotest.check check_q "inv neg" (q (-7) 3) (Rational.inv (q (-3) 7));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Rational.inv Rational.zero))

let test_rational_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Rational.compare (q 1 3) (q 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Rational.compare (q (-1) 2) (q 1 3) < 0);
  Alcotest.(check bool) "eq" true (Rational.equal (q 2 4) (q 1 2));
  Alcotest.check check_q "min" (q 1 3) (Rational.min (q 1 3) (q 1 2));
  Alcotest.check check_q "max" (q 1 2) (Rational.max (q 1 3) (q 1 2))

let test_rational_floor_ceil () =
  Alcotest.check check_q "floor 7/2" (Rational.of_int 3) (Rational.floor (q 7 2));
  Alcotest.check check_q "floor -7/2" (Rational.of_int (-4)) (Rational.floor (q (-7) 2));
  Alcotest.check check_q "ceil 7/2" (Rational.of_int 4) (Rational.ceil (q 7 2));
  Alcotest.check check_q "ceil -7/2" (Rational.of_int (-3)) (Rational.ceil (q (-7) 2));
  Alcotest.check check_q "floor int" (Rational.of_int 5) (Rational.floor (Rational.of_int 5))

let test_rational_of_string () =
  Alcotest.check check_q "frac" (q 3 4) (Rational.of_string "3/4");
  Alcotest.check check_q "int" (Rational.of_int (-12)) (Rational.of_string "-12");
  Alcotest.check check_q "decimal" (q 13 4) (Rational.of_string "3.25");
  Alcotest.check check_q "neg decimal" (q (-13) 4) (Rational.of_string "-3.25");
  Alcotest.check check_q "bare decimal" (q 1 4) (Rational.of_string ".25");
  Alcotest.check check_q "trim" (q 1 2) (Rational.of_string " 1/2 ")

(* A zero denominator in text is malformed input (Invalid_argument, which
   every text reader turns into a "bad number" error); [make] keeps
   Division_by_zero for programmer errors. *)
let test_rational_of_string_zero_den () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument (Printf.sprintf "Rational.of_string: %S" s))
        (fun () -> ignore (Rational.of_string s)))
    [ "1/0"; "1/-0"; "0/0"; "-3/00" ];
  Alcotest.check_raises "make" Division_by_zero (fun () ->
      ignore (Rational.make Bigint.one Bigint.zero))

let test_rational_float () =
  Alcotest.(check (float 1e-12)) "to_float" 0.75 (Rational.to_float (q 3 4))

(* ------------------------------------------------------------------ *)
(* Small/Big boundary and hash laws                                    *)

(* A multi-limb constant used to force values through the Big
   representation and back: x |-> (x + huge) - huge must land on the
   same canonical representation (and hash) as x itself. *)
let huge = Bigint.of_string "123456789012345678901234567890123456789"
let huge_q = Rational.of_bigint huge

let test_bignat_int_boundary () =
  (* 62/63-bit boundary: max_int is 2 full 30-bit limbs plus 3 bits of a
     third; every value beyond it must report None. *)
  let nat_of_int_str n = Bignat.of_string (string_of_int n) in
  List.iter
    (fun n ->
      Alcotest.(check (option int)) (string_of_int n) (Some n) (Bignat.to_int_opt (nat_of_int_str n)))
    [ max_int; max_int - 1; max_int - 2; (1 lsl 61) - 1; 1 lsl 61; (1 lsl 61) + 1 ];
  let beyond = Bignat.succ (nat_of_int_str max_int) in (* 2^62: 3 limbs, n.(2) = 4 *)
  Alcotest.(check (option int)) "max_int+1" None (Bignat.to_int_opt beyond);
  let top_limb = Bignat.shift_left (bn 1) 63 in (* 3 limbs with n.(2) = 8: the guard *)
  Alcotest.(check (option int)) "2^63" None (Bignat.to_int_opt top_limb);
  Alcotest.(check (option int)) "2^63+5" None
    (Bignat.to_int_opt (Bignat.add top_limb (bn 5)));
  Alcotest.(check (option int)) "4 limbs" None
    (Bignat.to_int_opt (Bignat.shift_left (bn 1) 95));
  Alcotest.check_raises "to_int_exn beyond"
    (Failure "Bignat.to_int_exn: value exceeds native int range") (fun () ->
      ignore (Bignat.to_int_exn beyond));
  (* Bigint side: min_int lives in the Big representation but must
     still convert back. *)
  Alcotest.(check (option int)) "bigint min_int" (Some min_int)
    (Bigint.to_int_opt (Bigint.of_int min_int));
  Alcotest.(check (option int)) "bigint min_int - 1" None
    (Bigint.to_int_opt (Bigint.sub (Bigint.of_int min_int) Bigint.one));
  Alcotest.(check (option int)) "bigint -max_int" (Some (-max_int))
    (Bigint.to_int_opt (Bigint.of_int (-max_int)))

(* ------------------------------------------------------------------ *)
(* Round-trip fuzzing, seeded via Prng.Rng                             *)

let test_rational_string_roundtrip_fuzz () =
  let rng = Prng.Rng.create 0xF00D in
  for _ = 1 to 10_000 do
    let num =
      match Prng.Rng.int rng 3 with
      | 0 -> Bigint.of_int (Prng.Rng.int_in rng (-1_000_000) 1_000_000)
      | 1 -> Bigint.of_int (max_int - Prng.Rng.int rng 1000)
      | _ ->
        Bigint.mul (Bigint.of_int (Prng.Rng.int_in rng (-1_000_000) 1_000_000))
          (Bigint.of_string "100000000000000000000000003")
    in
    let den = Bigint.of_int (1 + Prng.Rng.int rng 1_000_000) in
    let a = Rational.make num den in
    let back = Rational.of_string (Rational.to_string a) in
    if not (Rational.equal a back) then
      Alcotest.failf "string round trip broke on %s" (Rational.to_string a)
  done

(* ------------------------------------------------------------------ *)
(* Qvec unit tests                                                     *)

let test_rational_decimal () =
  Alcotest.(check string) "1/3 at 4 digits" "0.3333" (Rational.to_decimal_string (q 1 3) ~digits:4);
  Alcotest.(check string) "negative" "-0.50" (Rational.to_decimal_string (q (-1) 2) ~digits:2);
  Alcotest.(check string) "integer" "7" (Rational.to_decimal_string (Rational.of_int 7) ~digits:0);
  Alcotest.(check string) "pad zeros" "0.0100" (Rational.to_decimal_string (q 1 100) ~digits:4);
  Alcotest.(check string) "exact termination" "0.125" (Rational.to_decimal_string (q 1 8) ~digits:3);
  Alcotest.check_raises "negative digits"
    (Invalid_argument "Rational.to_decimal_string: negative digit count") (fun () ->
      ignore (Rational.to_decimal_string Rational.one ~digits:(-1)))

let test_qvec () =
  let v = [| q 1 2; q 1 3; q 1 6 |] in
  Alcotest.(check bool) "is distribution" true (Qvec.is_distribution v);
  Alcotest.(check bool) "is positive" true (Qvec.is_positive_distribution v);
  Alcotest.check check_q "sum" Rational.one (Qvec.sum v);
  let w = [| q 1 2; q 1 2; Rational.zero |] in
  Alcotest.(check bool) "zero entry distribution" true (Qvec.is_distribution w);
  Alcotest.(check bool) "zero entry not positive" false (Qvec.is_positive_distribution w);
  let bad = [| q 1 2; q 1 3 |] in
  Alcotest.(check bool) "not summing to one" false (Qvec.is_distribution bad)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let nat_small = QCheck2.Gen.(map Bignat.of_int (int_bound 1_000_000))

(* Naturals with hundreds of bits, built multiplicatively so limb
   boundaries get exercised. *)
let nat_big =
  QCheck2.Gen.(
    map2
      (fun parts shift ->
        let n = List.fold_left (fun acc p -> Bignat.add (Bignat.mul acc (Bignat.of_int 1000003)) (Bignat.of_int p)) (bn 1) parts in
        Bignat.shift_left n shift)
      (list_size (int_range 1 12) (int_bound 999_999))
      (int_bound 64))

let int_gen = QCheck2.Gen.(int_range (-1_000_000) 1_000_000)

let rational_gen =
  QCheck2.Gen.(
    map2 (fun n d -> Rational.of_ints n (1 + d)) int_gen (int_bound 1_000))

let prop name ?(count = 300) gen law = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let numeric_properties =
  [
    prop "bignat add vs int oracle"
      QCheck2.Gen.(pair (int_bound 100_000_000) (int_bound 100_000_000))
      (fun (a, b) -> Bignat.to_int_opt (Bignat.add (bn a) (bn b)) = Some (a + b));
    prop "bignat mul vs int oracle"
      QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (a, b) -> Bignat.to_int_opt (Bignat.mul (bn a) (bn b)) = Some (a * b));
    prop "bignat divmod vs int oracle"
      QCheck2.Gen.(pair (int_bound 100_000_000) (int_bound 10_000))
      (fun (a, b) ->
        let b = b + 1 in
        let quot, rem = Bignat.divmod (bn a) (bn b) in
        Bignat.to_int_opt quot = Some (a / b) && Bignat.to_int_opt rem = Some (a mod b));
    prop "bignat division invariant" QCheck2.Gen.(pair nat_big nat_big)
      (fun (a, b) ->
        let big, small = if Bignat.compare a b >= 0 then (a, b) else (b, a) in
        let small = Bignat.succ small in
        let quot, rem = Bignat.divmod big small in
        Bignat.equal big (Bignat.add (Bignat.mul quot small) rem)
        && Bignat.compare rem small < 0);
    prop "bignat string round trip" nat_big (fun n ->
        Bignat.equal n (Bignat.of_string (Bignat.to_string n)));
    prop "bignat sub inverse of add" QCheck2.Gen.(pair nat_big nat_small) (fun (a, b) ->
        Bignat.equal a (Bignat.sub (Bignat.add a b) b));
    prop "bignat gcd divides both" QCheck2.Gen.(pair nat_big nat_small) (fun (a, b) ->
        let b = Bignat.succ b in
        let g = Bignat.gcd a b in
        Bignat.equal (Bignat.rem a g) (bn 0) && Bignat.equal (Bignat.rem b g) (bn 0));
    prop "bignat shift_left is mul by power of two" QCheck2.Gen.(pair nat_big (int_bound 100))
      (fun (n, k) -> Bignat.equal (Bignat.shift_left n k) (Bignat.mul n (Bignat.pow (bn 2) k)));
    prop "bignat shift_right is div by power of two" QCheck2.Gen.(pair nat_big (int_bound 100))
      (fun (n, k) -> Bignat.equal (Bignat.shift_right n k) (fst (Bignat.divmod n (Bignat.pow (bn 2) k))));
    prop "bignat compare antisymmetric" QCheck2.Gen.(pair nat_big nat_big) (fun (a, b) ->
        Bignat.compare a b = -Bignat.compare b a);
    prop "bignat mul commutative at scale" QCheck2.Gen.(pair nat_big nat_big) (fun (a, b) ->
        Bignat.equal (Bignat.mul a b) (Bignat.mul b a));
    prop "bignat mul associative at scale" QCheck2.Gen.(triple nat_big nat_big nat_small)
      (fun (a, b, c) ->
        Bignat.equal (Bignat.mul (Bignat.mul a b) c) (Bignat.mul a (Bignat.mul b c)));
    prop "bignat mul distributes over add" QCheck2.Gen.(triple nat_big nat_big nat_big)
      (fun (a, b, c) ->
        Bignat.equal (Bignat.mul a (Bignat.add b c))
          (Bignat.add (Bignat.mul a b) (Bignat.mul a c)));
    prop "bignat pow is a homomorphism" QCheck2.Gen.(triple (int_bound 1000) (int_bound 12) (int_bound 12))
      (fun (base, i, j) ->
        let b = Bignat.of_int base in
        Bignat.equal (Bignat.pow b (i + j)) (Bignat.mul (Bignat.pow b i) (Bignat.pow b j)));
    prop "bignat knuth division agrees with single-limb division"
      QCheck2.Gen.(pair nat_big (int_range 1 1_000_000))
      (fun (a, d) ->
        (* Divide by a single-limb value via the multi-limb path (force
           it by shifting the divisor into two limbs and back). *)
        let small = Bignat.of_int d in
        let q1, r1 = Bignat.divmod a small in
        let shifted = Bignat.shift_left small 35 in
        let q2, r2 = Bignat.divmod (Bignat.shift_left a 35) shifted in
        Bignat.equal q1 q2
        && Bignat.equal (Bignat.shift_left r1 35) r2);
    prop "bigint add vs int oracle" QCheck2.Gen.(pair int_gen int_gen) (fun (a, b) ->
        Bigint.to_int_opt (Bigint.add (bi a) (bi b)) = Some (a + b));
    prop "bigint mul vs int oracle" QCheck2.Gen.(pair int_gen int_gen) (fun (a, b) ->
        Bigint.to_int_opt (Bigint.mul (bi a) (bi b)) = Some (a * b));
    prop "bigint divmod vs int oracle" QCheck2.Gen.(pair int_gen int_gen) (fun (a, b) ->
        let b = if b = 0 then 1 else b in
        let quot, rem = Bigint.divmod (bi a) (bi b) in
        Bigint.to_int_opt quot = Some (a / b) && Bigint.to_int_opt rem = Some (a mod b));
    prop "bigint compare vs int oracle" QCheck2.Gen.(pair int_gen int_gen) (fun (a, b) ->
        compare (Bigint.compare (bi a) (bi b)) 0 = compare (compare a b) 0);
    prop "bigint string round trip" int_gen (fun a ->
        Bigint.equal (bi a) (Bigint.of_string (Bigint.to_string (bi a))));
    prop "rational add commutative" QCheck2.Gen.(pair rational_gen rational_gen) (fun (a, b) ->
        Rational.equal (Rational.add a b) (Rational.add b a));
    prop "rational add associative" QCheck2.Gen.(triple rational_gen rational_gen rational_gen)
      (fun (a, b, c) ->
        Rational.equal
          (Rational.add (Rational.add a b) c)
          (Rational.add a (Rational.add b c)));
    prop "rational distributive" QCheck2.Gen.(triple rational_gen rational_gen rational_gen)
      (fun (a, b, c) ->
        Rational.equal
          (Rational.mul a (Rational.add b c))
          (Rational.add (Rational.mul a b) (Rational.mul a c)));
    prop "rational sub then add" QCheck2.Gen.(pair rational_gen rational_gen) (fun (a, b) ->
        Rational.equal a (Rational.add (Rational.sub a b) b));
    prop "rational div then mul" QCheck2.Gen.(pair rational_gen rational_gen) (fun (a, b) ->
        Rational.is_zero b || Rational.equal a (Rational.mul (Rational.div a b) b));
    prop "rational lowest terms" rational_gen (fun a ->
        Bignat.equal (bn 1) (Bignat.gcd (Bigint.abs_nat (Rational.num a)) (Bigint.abs_nat (Rational.den a)))
        || Rational.is_zero a);
    prop "rational floor bounds" rational_gen (fun a ->
        let f = Rational.floor a in
        Rational.compare f a <= 0
        && Rational.compare a (Rational.add f Rational.one) < 0);
    prop "rational string round trip" rational_gen (fun a ->
        Rational.equal a (Rational.of_string (Rational.to_string a)));
    prop "rational decimal string truncates toward zero" rational_gen (fun a ->
        let s = Rational.to_decimal_string a ~digits:6 in
        let back = Rational.of_string s in
        (* |a - back| < 10^-6 and back is between 0 and a. *)
        let diff = Rational.abs (Rational.sub a back) in
        Rational.compare diff (Rational.of_ints 1 1_000_000) < 0
        && Rational.compare (Rational.abs back) (Rational.abs a) <= 0);
    prop "rational compare total order" QCheck2.Gen.(triple rational_gen rational_gen rational_gen)
      (fun (a, b, c) ->
        (* transitivity of <= on a sample *)
        let ( <= ) x y = Rational.compare x y <= 0 in
        not (a <= b && b <= c) || a <= c);
  ]

let boundary_int_gen =
  (* Values within a few thousand of ±max_int, ±2^61 and ±2^30. *)
  QCheck2.Gen.(
    map2
      (fun center off ->
        match center with
        | 0 -> max_int - off
        | 1 -> -max_int + off
        | 2 -> (1 lsl 61) + off - 500
        | 3 -> -(1 lsl 61) + off - 500
        | 4 -> (1 lsl 30) + off - 500
        | _ -> off - 500)
      (int_bound 5) (int_bound 1000))

let boundary_properties =
  [
    prop "to_int_opt round trips at the 62/63-bit boundary" boundary_int_gen (fun n ->
        Bignat.to_int_opt (Bignat.of_string (string_of_int (Stdlib.abs n))) = Some (Stdlib.abs n)
        && Bigint.to_int_opt (Bigint.of_string (string_of_int n)) = Some n);
    prop "to_int_opt rejects just past max_int" QCheck2.Gen.(int_bound 1000) (fun k ->
        let v = Bignat.add (Bignat.of_string (string_of_int max_int)) (bn (k + 1)) in
        Bignat.to_int_opt v = None
        && (try ignore (Bignat.to_int_exn v); false with Failure _ -> true));
    prop "three-limb top-limb guard" QCheck2.Gen.(int_bound 7) (fun top ->
        (* values top * 2^60 + r with top in [8, 15] have n.(2) >= 8 *)
        let v = Bignat.add (Bignat.shift_left (bn (top + 8)) 60) (bn 12345) in
        Bignat.to_int_opt v = None);
    prop "bigint arithmetic crossing the native boundary" boundary_int_gen (fun n ->
        let v = bi n in
        let roundtrip = Bigint.sub (Bigint.add v huge) huge in
        Bigint.equal v roundtrip && Bigint.to_int_opt roundtrip = Some n);
  ]

let hash_law_properties =
  [
    prop "bignat equal implies equal hash across construction routes"
      QCheck2.Gen.(int_bound 1_000_000_000)
      (fun n ->
        let a = bn n in
        let b = Bignat.of_string (string_of_int n) in
        let huge_n = Bignat.of_string "340282366920938463463374607431768211507" in
        let c = Bignat.sub (Bignat.add a huge_n) huge_n in
        Bignat.equal a b && Bignat.equal a c
        && Bignat.hash a = Bignat.hash b && Bignat.hash a = Bignat.hash c);
    prop "bigint equal implies equal hash (via Big detour)"
      QCheck2.Gen.(int_range (-1_000_000_000) 1_000_000_000)
      (fun n ->
        let a = bi n in
        let b = Bigint.sub (Bigint.add a huge) huge in
        Bigint.equal a b && Bigint.hash a = Bigint.hash b);
    prop "bigint hash at the boundary" boundary_int_gen (fun n ->
        let a = bi n in
        let b = Bigint.of_string (string_of_int n) in
        let c = Bigint.neg (Bigint.neg (Bigint.sub (Bigint.add a huge) huge)) in
        Bigint.hash a = Bigint.hash b && Bigint.hash a = Bigint.hash c);
    prop "rational equal implies equal hash across construction routes"
      QCheck2.Gen.(triple int_gen (int_bound 1_000) (int_range 1 1_000))
      (fun (n, d, m) ->
        let d = d + 1 in
        let a = q n d in
        (* same value, three other routes: scaled make, arithmetic
           detour through multi-limb intermediates, string round trip *)
        let scaled = Rational.make (Bigint.of_int (n * m)) (Bigint.of_int (d * m)) in
        let detour = Rational.sub (Rational.add a huge_q) huge_q in
        let restrung = Rational.of_string (Rational.to_string a) in
        Rational.equal a scaled && Rational.equal a detour && Rational.equal a restrung
        && List.for_all
             (fun b ->
               Bigint.hash (Rational.num a) = Bigint.hash (Rational.num b)
               && Bigint.hash (Rational.den a) = Bigint.hash (Rational.den b))
             [ scaled; detour; restrung ]);
  ]

(* ------------------------------------------------------------------ *)
(* Fused sum comparison: compare_sum must agree with the materialised
   [compare (add a b) c] on every magnitude mix — both operands native,
   both multi-limb, and the Small/Big straddles where the unreduced
   cross products promote mid-computation. *)

let pow10_25 = Bigint.of_string "10000000000000000000000000"

(* Signed integers across four magnitude regimes: small natives, the
   62/63-bit promotion boundary, and 25+-digit multi-limb values. *)
let mixed_bigint_gen =
  QCheck2.Gen.(
    oneof
      [
        map Bigint.of_int int_gen;
        map (fun k -> Bigint.of_int (max_int - k)) (int_bound 1000);
        map (fun k -> Bigint.of_int (-max_int + k)) (int_bound 1000);
        map2
          (fun a b -> Bigint.add (Bigint.mul (Bigint.of_int a) pow10_25) (Bigint.of_int b))
          int_gen (int_bound 1_000_000);
      ])

let mixed_q_gen =
  QCheck2.Gen.(
    map2
      (fun n d ->
        let d = if Bigint.is_zero d then Bigint.one else d in
        Rational.make n d)
      mixed_bigint_gen mixed_bigint_gen)

let compare_sum_properties =
  [
    prop "compare_sum agrees with materialised sum" ~count:600
      QCheck2.Gen.(triple mixed_q_gen mixed_q_gen mixed_q_gen)
      (fun (a, b, c) ->
        compare (Rational.compare_sum a b c) 0
        = compare (Rational.compare (Rational.add a b) c) 0);
    prop "compare_sum detects exact equality" ~count:300
      QCheck2.Gen.(pair mixed_q_gen mixed_q_gen)
      (fun (a, b) -> Rational.compare_sum a b (Rational.add a b) = 0);
    prop "compare_sum with shared denominators" ~count:300
      QCheck2.Gen.(triple mixed_bigint_gen mixed_bigint_gen mixed_bigint_gen)
      (fun (na, nb, nc) ->
        (* All three over the same (multi-limb) denominator: hits the
           same-den Bigint.add shortcut inside compare_sum. *)
        let d = Bigint.add pow10_25 Bigint.one in
        let a = Rational.make na d and b = Rational.make nb d and c = Rational.make nc d in
        compare (Rational.compare_sum a b c) 0
        = compare (Rational.compare (Rational.add a b) c) 0);
    prop "compare_sum zero shortcuts" ~count:300
      QCheck2.Gen.(pair mixed_q_gen mixed_q_gen)
      (fun (b, c) ->
        Rational.compare_sum Rational.zero b c = Rational.compare b c
        && Rational.compare_sum b Rational.zero c = Rational.compare b c);
  ]

(* Quotient comparison: compare_div must agree with the materialised
   [compare (div a b) (div c d)].  Dividends are zero one time in four
   so the sign exits are hit; divisors are any non-zero mixed rational,
   negative ones included, so the sign fix-up is exercised. *)

let dividend_gen = QCheck2.Gen.(frequency [ (1, return Rational.zero); (3, mixed_q_gen) ])

let divisor_gen =
  QCheck2.Gen.map (fun q -> if Rational.is_zero q then Rational.minus_one else q) mixed_q_gen

let compare_div_properties =
  [
    prop "compare_div agrees with materialised quotients" ~count:600
      QCheck2.Gen.(quad dividend_gen divisor_gen dividend_gen divisor_gen)
      (fun (a, b, c, d) ->
        Rational.compare_div a b c d
        = Rational.compare (Rational.div a b) (Rational.div c d));
    prop "compare_div detects exact equality" ~count:300
      QCheck2.Gen.(triple dividend_gen divisor_gen divisor_gen)
      (fun (a, b, k) ->
        (* a/b = (a·k)/(b·k) with both sides unreduced differently. *)
        Rational.compare_div a b (Rational.mul a k) (Rational.mul b k) = 0);
  ]

let test_compare_div_units () =
  Alcotest.(check int) "3/2 = 6/4" 0 (Rational.compare_div (Rational.of_int 3) (Rational.of_int 2) (Rational.of_int 6) (Rational.of_int 4));
  Alcotest.(check int) "1/3 < 1/2" (-1) (Rational.compare_div Rational.one (Rational.of_int 3) Rational.one (Rational.of_int 2));
  Alcotest.(check int) "negative divisor flips" 1
    (Rational.compare_div Rational.one (Rational.of_int (-3)) Rational.one (Rational.of_int (-2)));
  Alcotest.(check int) "zero dividends" 0
    (Rational.compare_div Rational.zero (Rational.of_int (-5)) Rational.zero (q 1 7));
  Alcotest.check_raises "zero divisor" Division_by_zero (fun () ->
      ignore (Rational.compare_div Rational.one Rational.zero Rational.one Rational.one))

let test_compare_sum_units () =
  Alcotest.(check int) "1/3 + 1/6 = 1/2" 0 (Rational.compare_sum (q 1 3) (q 1 6) (q 1 2));
  Alcotest.(check bool) "1/3 + 1/7 < 1/2" true (Rational.compare_sum (q 1 3) (q 1 7) (q 1 2) < 0);
  Alcotest.(check bool) "1/3 + 1/5 > 1/2" true (Rational.compare_sum (q 1 3) (q 1 5) (q 1 2) > 0);
  Alcotest.(check bool) "negative operands" true
    (Rational.compare_sum (q (-1) 2) (q 1 3) Rational.zero < 0);
  (* Multi-limb: the unreduced cross products are far beyond native. *)
  let big = Rational.of_bigint (Bigint.add pow10_25 Bigint.one) in
  Alcotest.(check int) "big + 1 = big + 1" 0
    (Rational.compare_sum big Rational.one (Rational.add big Rational.one));
  Alcotest.(check bool) "big + 1 > big" true (Rational.compare_sum big Rational.one big > 0)

(* ------------------------------------------------------------------ *)
(* Large-magnitude compare: differential pin against the seed tower.
   The staged filters (limb count, leading-limb mantissa interval,
   gcd-shrunk cross multiply) must return the same sign as the seed's
   plain cross multiplication on the bench's "large" regime (25-digit
   numerators and denominators) and on adversarial near-equal pairs
   that defeat the mantissa filter. *)

let random_digits rng k =
  String.init k (fun i ->
      let d = if i = 0 then 1 + Prng.Rng.int rng 9 else Prng.Rng.int rng 10 in
      Char.chr (Char.code '0' + d))

let check_compare_pair sa sb =
  let live = compare (Rational.compare (Rational.of_string sa) (Rational.of_string sb)) 0 in
  let seed = compare (Reference.Q.compare (Reference.Q.of_string sa) (Reference.Q.of_string sb)) 0 in
  if live <> seed then
    Alcotest.failf "compare diverged from reference on %s vs %s: live=%d seed=%d" sa sb live seed

let test_rational_compare_large_vs_reference () =
  let rng = Prng.Rng.create 0xC0417A4E in
  let operand () =
    let sign = if Prng.Rng.bool rng then "" else "-" in
    let ndig = Prng.Rng.int_in rng 20 30 and ddig = Prng.Rng.int_in rng 20 30 in
    sign ^ random_digits rng ndig ^ "/" ^ random_digits rng ddig
  in
  for _ = 1 to 2_000 do
    check_compare_pair (operand ()) (operand ())
  done;
  (* Adversarial near-equal pairs: b = a scaled by (t ± 1)/t for a huge
     t, so the 29-bit mantissa interval filter cannot decide and the
     exact gcd-shrunk cross multiply must give the verdict. *)
  for _ = 1 to 500 do
    let n = random_digits rng 25 and d = random_digits rng 25 in
    let t = random_digits rng 20 in
    let num = Bigint.of_string n and den = Bigint.of_string d and tb = Bigint.of_string t in
    let bump = if Prng.Rng.bool rng then Bigint.one else Bigint.of_int (-1) in
    let a_str = n ^ "/" ^ d in
    let b_num = Bigint.mul num (Bigint.add tb bump) in
    let b_den = Bigint.mul den tb in
    let b_str = Bigint.to_string b_num ^ "/" ^ Bigint.to_string b_den in
    check_compare_pair a_str b_str;
    check_compare_pair a_str a_str
  done

(* ------------------------------------------------------------------ *)
(* Small/Big promotion boundary, per-op against the seed tower.  Every
   operand sits within ~1500 of a representation cliff (±max_int, ±2^62,
   2^61, 2^30) so add/sub/mul/compare exercise promotion, demotion and
   the mixed Small×Big paths; each individual result must render to the
   seed tower's decimal string. *)

let test_bigint_boundary_ops_vs_reference () =
  let rng = Prng.Rng.create 0xB04DD4 in
  let two_62 = Bigint.add (Bigint.of_int max_int) Bigint.one in
  let center () =
    match Prng.Rng.int rng 7 with
    | 0 -> Bigint.of_int max_int
    | 1 -> Bigint.of_int min_int
    | 2 -> two_62
    | 3 -> Bigint.neg two_62
    | 4 -> Bigint.of_int (1 lsl 61)
    | 5 -> Bigint.of_int (1 lsl 30)
    | _ -> Bigint.zero
  in
  let operand () =
    Bigint.to_string (Bigint.add (center ()) (Bigint.of_int (Prng.Rng.int_in rng (-1500) 1500)))
  in
  let check_op op sa sb fast slow =
    let f = Bigint.to_string fast and s = Reference.Int.to_string slow in
    if not (String.equal f s) then
      Alcotest.failf "bigint %s diverged at the boundary on %s, %s: fast=%s seed=%s" op sa sb f s
  in
  for _ = 1 to 5_000 do
    let sa = operand () and sb = operand () in
    let a = Bigint.of_string sa and b = Bigint.of_string sb in
    let ra = Reference.Int.of_string sa and rb = Reference.Int.of_string sb in
    check_op "add" sa sb (Bigint.add a b) (Reference.Int.add ra rb);
    check_op "sub" sa sb (Bigint.sub a b) (Reference.Int.sub ra rb);
    check_op "mul" sa sb (Bigint.mul a b) (Reference.Int.mul ra rb);
    if compare (Bigint.compare a b) 0 <> compare (Reference.Int.compare ra rb) 0 then
      Alcotest.failf "bigint compare diverged at the boundary on %s vs %s" sa sb
  done

(* ------------------------------------------------------------------ *)
(* Normal-form sanitizer (SELFISH_SANITIZE).  Forge malformed values
   through the unsafe_* test hooks and check the guarded entry points
   reject them when the sanitizer is enabled. *)

let with_sanitizer f =
  let saved = !Sanitize.enabled in
  Sanitize.enabled := true;
  Fun.protect ~finally:(fun () -> Sanitize.enabled := saved) f

let rejects name f =
  match with_sanitizer f with
  | exception Sanitize.Violation _ -> ()
  | _ -> Alcotest.failf "%s: malformed value accepted" name

let test_sanitize_bignat () =
  (* A high zero limb breaks the canonical little-endian form. *)
  let trailing_zero = Bignat.unsafe_of_limbs [| 1; 0 |] in
  rejects "trailing zero limb in add" (fun () -> Bignat.add trailing_zero (bn 1));
  rejects "trailing zero limb in hash" (fun () -> Bignat.hash trailing_zero);
  let out_of_range = Bignat.unsafe_of_limbs [| 1 lsl 30 |] in
  rejects "limb out of range" (fun () -> Bignat.mul out_of_range (bn 2));
  (* Well-formed values sail through with the sanitizer on. *)
  with_sanitizer (fun () ->
      Alcotest.check check_bn "clean value unaffected" (bn 7) (Bignat.add (bn 3) (bn 4)))

let test_sanitize_bigint () =
  (* Big must be reserved for magnitudes beyond native int. *)
  let small_mag = Bigint.unsafe_big ~negative:false (Bignat.of_int 5) in
  rejects "Big wrapping small magnitude" (fun () -> Bigint.add small_mag (bi 1));
  rejects "Big wrapping small magnitude in hash" (fun () -> Bigint.hash small_mag);
  let bad_mag = Bigint.unsafe_big ~negative:true (Bignat.unsafe_of_limbs [| 3; 0 |]) in
  rejects "Big with malformed magnitude" (fun () -> Bigint.mul bad_mag (bi 2));
  with_sanitizer (fun () ->
      Alcotest.check check_bi "clean value unaffected" (bi 7) (Bigint.add (bi 3) (bi 4)))

let test_sanitize_rational () =
  (* Non-reduced and wrong-sign-denominator forgeries. *)
  let non_reduced = Rational.unsafe_of_parts (bi 2) (bi 4) in
  rejects "non-reduced fraction" (fun () -> Rational.add non_reduced (q 1 3));
  let neg_den = Rational.unsafe_of_parts (bi 1) (bi (-3)) in
  rejects "negative denominator" (fun () -> Rational.compare neg_den (q 1 3));
  with_sanitizer (fun () ->
      Alcotest.check check_q "clean value unaffected" (q 5 6) (Rational.add (q 1 2) (q 1 3)))

let test_sanitize_hoisted_entry_points () =
  (* min/max, the comparison operators and compare_sum hoist their
     guards to the entry point and run unguarded comparisons inside;
     forged operands must still be caught on the way in, whichever
     argument position they take. *)
  let non_reduced = Rational.unsafe_of_parts (bi 2) (bi 4) in
  let neg_den = Rational.unsafe_of_parts (bi 1) (bi (-3)) in
  rejects "min left" (fun () -> Rational.min non_reduced (q 1 3));
  rejects "min right" (fun () -> Rational.min (q 1 3) neg_den);
  rejects "max left" (fun () -> Rational.max neg_den (q 1 3));
  rejects "max right" (fun () -> Rational.max (q 1 3) non_reduced);
  rejects "compare_sum first" (fun () -> Rational.compare_sum non_reduced (q 1 3) (q 1 2));
  rejects "compare_sum second" (fun () -> Rational.compare_sum (q 1 3) neg_den (q 1 2));
  rejects "compare_sum third" (fun () -> Rational.compare_sum (q 1 3) (q 1 2) non_reduced);
  (* compare_sum's zero shortcut must not bypass the guards. *)
  rejects "compare_sum zero shortcut" (fun () ->
      Rational.compare_sum Rational.zero (q 1 3) neg_den);
  with_sanitizer (fun () ->
      Alcotest.(check int) "clean compare_sum unaffected" 0
        (Rational.compare_sum (q 1 3) (q 1 6) (q 1 2));
      Alcotest.check check_q "clean min unaffected" (q 1 3) (Rational.min (q 1 3) (q 1 2)))

let test_sanitize_disabled_by_default () =
  (* With the sanitizer off (the default), the unsafe hooks do not
     trip assertions: operations run on the forged value as-is. *)
  let saved = !Sanitize.enabled in
  Sanitize.enabled := false;
  Fun.protect
    ~finally:(fun () -> Sanitize.enabled := saved)
    (fun () ->
      let small_mag = Bigint.unsafe_big ~negative:false (Bignat.of_int 5) in
      ignore (Bigint.hash small_mag))

let suite =
  [
    ("bignat round trip", `Quick, test_bignat_roundtrip);
    ("bignat of_string", `Quick, test_bignat_of_string);
    ("bignat add/sub", `Quick, test_bignat_add_sub);
    ("bignat mul", `Quick, test_bignat_mul);
    ("bignat divmod", `Quick, test_bignat_divmod);
    ("bignat gcd/pow", `Quick, test_bignat_gcd_pow);
    ("bignat shifts", `Quick, test_bignat_shifts);
    ("bigint basics", `Quick, test_bigint_basic);
    ("bigint min_int", `Quick, test_bigint_min_int);
    ("bigint divmod signs", `Quick, test_bigint_divmod_signs);
    ("rational normalisation", `Quick, test_rational_normalisation);
    ("rational arithmetic", `Quick, test_rational_arith);
    ("rational compare", `Quick, test_rational_compare);
    ("rational floor/ceil", `Quick, test_rational_floor_ceil);
    ("rational of_string", `Quick, test_rational_of_string);
    ("rational of_string zero denominator", `Quick, test_rational_of_string_zero_den);
    ("rational float conversions", `Quick, test_rational_float);
    ("rational decimal rendering", `Quick, test_rational_decimal);
    ("qvec operations", `Quick, test_qvec);
    ("bignat 62/63-bit boundary", `Quick, test_bignat_int_boundary);
    ("compare_sum units", `Quick, test_compare_sum_units);
    ("compare_div units", `Quick, test_compare_div_units);
    ("rational compare large vs reference", `Quick, test_rational_compare_large_vs_reference);
    ("bigint boundary ops vs reference", `Quick, test_bigint_boundary_ops_vs_reference);
    ("rational string round-trip fuzz", `Quick, test_rational_string_roundtrip_fuzz);
    ("sanitizer rejects malformed bignat", `Quick, test_sanitize_bignat);
    ("sanitizer rejects malformed bigint", `Quick, test_sanitize_bigint);
    ("sanitizer rejects malformed rational", `Quick, test_sanitize_rational);
    ("sanitizer guards hoisted entry points", `Quick, test_sanitize_hoisted_entry_points);
    ("sanitizer off by default", `Quick, test_sanitize_disabled_by_default);
  ]

let () =
  Alcotest.run "numeric"
    [
      ("unit", suite);
      ("properties",
       numeric_properties @ boundary_properties @ hash_law_properties @ compare_sum_properties
       @ compare_div_properties);
    ]
