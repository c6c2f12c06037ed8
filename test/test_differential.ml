(* Differential testing of the live numeric tower (tagged small-value
   fast path) against Reference (test/reference/), the seed array-only
   implementation.  Randomized op sequences — adds, subs, muls,
   divmods, gcds, compares, string round trips — run against both
   towers in lockstep; every produced value must render to the same
   decimal string.  Operands deliberately straddle the native-int
   boundary so the Small/Big promotion and demotion paths are the ones
   exercised, not just one representation.

   The sequence counts here (60k Bigint + 50k Rational) are what the
   acceptance gate in ISSUE.md's "10^5 randomized mixed-op sequences"
   refers to; shrink them only with a matching change there. *)

open Numeric
module R = Reference
module Rng = Prng.Rng

let bigint_sequences = 60_000
let rational_sequences = 50_000

(* ------------------------------------------------------------------ *)
(* Bigint vs Reference.Int                                             *)

type ipair = { fast : Bigint.t; slow : R.Int.t }

let ipair_of_string s = { fast = Bigint.of_string s; slow = R.Int.of_string s }

let check_i op p =
  let f = Bigint.to_string p.fast and s = R.Int.to_string p.slow in
  if not (String.equal f s) then
    Alcotest.failf "bigint %s diverged: fast=%s reference=%s" op f s;
  p

(* A value pool spanning zero, small ints, the 62/63-bit boundary and
   multi-limb magnitudes. *)
let random_int_operand rng =
  match Rng.int rng 8 with
  | 0 -> ipair_of_string (string_of_int (Rng.int_in rng (-9) 9))
  | 1 | 2 -> ipair_of_string (string_of_int (Rng.int_in rng (-1_000_000) 1_000_000))
  | 3 ->
    (* straddle max_int / min_int *)
    let k = Rng.int rng 4 in
    let base = if Rng.bool rng then max_int - Rng.int rng 3 else min_int + Rng.int rng 3 in
    let p = ipair_of_string (string_of_int base) in
    let bump = ipair_of_string (string_of_int (k - 2)) in
    { fast = Bigint.add p.fast bump.fast; slow = R.Int.add p.slow bump.slow }
  | 4 | 5 ->
    (* 20–40 decimal digits, signed *)
    let digits = Rng.int_in rng 20 40 in
    let b = Buffer.create (digits + 1) in
    if Rng.bool rng then Buffer.add_char b '-';
    Buffer.add_char b (Char.chr (Char.code '1' + Rng.int rng 9));
    for _ = 2 to digits do
      Buffer.add_char b (Char.chr (Char.code '0' + Rng.int rng 10))
    done;
    ipair_of_string (Buffer.contents b)
  | 6 -> ipair_of_string (string_of_int ((1 lsl Rng.int_in rng 28 61) + Rng.int_in rng (-2) 2))
  | _ -> ipair_of_string "0"

(* Keep chained products from exploding: reduce modulo a fixed
   multi-limb modulus, computed in both towers. *)
let modulus = ipair_of_string "1000000000000000000000000000057"

let clamp_i p =
  if Bigint.num_bits p.fast > 600 then
    check_i "rem(clamp)"
      { fast = snd (Bigint.divmod p.fast modulus.fast); slow = R.Int.rem p.slow modulus.slow }
  else p

let bigint_sequence rng stack =
  let depth = Array.length stack in
  for i = 0 to depth - 1 do
    stack.(i) <- random_int_operand rng
  done;
  for _ = 1 to 6 + Rng.int rng 10 do
    let a = stack.(Rng.int rng depth) and b = stack.(Rng.int rng depth) in
    let store p = stack.(Rng.int rng depth) <- clamp_i p in
    match Rng.int rng 10 with
    | 0 -> store (check_i "add" { fast = Bigint.add a.fast b.fast; slow = R.Int.add a.slow b.slow })
    | 1 -> store (check_i "sub" { fast = Bigint.sub a.fast b.fast; slow = R.Int.sub a.slow b.slow })
    | 2 | 3 ->
      store (check_i "mul" { fast = Bigint.mul a.fast b.fast; slow = R.Int.mul a.slow b.slow })
    | 4 ->
      if not (Bigint.is_zero b.fast) then begin
        let qf, rf = Bigint.divmod a.fast b.fast in
        let qs, rs = R.Int.divmod a.slow b.slow in
        ignore (check_i "divmod-rem" { fast = rf; slow = rs });
        store (check_i "divmod-quot" { fast = qf; slow = qs })
      end
    | 5 -> store (check_i "gcd" { fast = Bigint.gcd a.fast b.fast; slow = R.Int.gcd a.slow b.slow })
    | 6 -> store (check_i "neg" { fast = Bigint.neg a.fast; slow = R.Int.neg a.slow })
    | 7 ->
      let cf = Stdlib.compare (Bigint.compare a.fast b.fast) 0 in
      let cs = Stdlib.compare (R.Int.compare a.slow b.slow) 0 in
      if cf <> cs then
        Alcotest.failf "bigint compare diverged on %s vs %s: fast=%d reference=%d"
          (Bigint.to_string a.fast) (Bigint.to_string b.fast) cf cs;
      if Bigint.equal a.fast b.fast <> R.Int.equal a.slow b.slow then
        Alcotest.failf "bigint equal diverged on %s vs %s" (Bigint.to_string a.fast)
          (Bigint.to_string b.fast)
    | 8 ->
      (* of_string/to_string round trip through the *other* tower's
         rendering: catches asymmetric printing bugs. *)
      store
        (check_i "restring"
           { fast = Bigint.of_string (R.Int.to_string a.slow);
             slow = R.Int.of_string (Bigint.to_string a.fast) })
    | _ ->
      (match Bigint.to_int_opt a.fast, R.Int.to_int_opt a.slow with
       | Some x, Some y when x = y -> ()
       | None, None -> ()
       | _ ->
         Alcotest.failf "bigint to_int_opt diverged on %s" (Bigint.to_string a.fast))
  done

let test_bigint_differential () =
  let rng = Rng.create 0xD1FF in
  let stack = Array.make 6 (ipair_of_string "0") in
  for _ = 1 to bigint_sequences do
    bigint_sequence rng stack
  done

(* ------------------------------------------------------------------ *)
(* Rational vs Reference.Q                                             *)

type qpair = { qfast : Rational.t; qslow : R.Q.t }

let qpair_of_string s = { qfast = Rational.of_string s; qslow = R.Q.of_string s }

let check_q op p =
  let f = Rational.to_string p.qfast and s = R.Q.to_string p.qslow in
  if not (String.equal f s) then
    Alcotest.failf "rational %s diverged: fast=%s reference=%s" op f s;
  p

let random_q_operand rng =
  match Rng.int rng 6 with
  | 0 -> qpair_of_string (string_of_int (Rng.int_in rng (-6) 6))
  | 1 | 2 ->
    qpair_of_string
      (Printf.sprintf "%d/%d" (Rng.int_in rng (-10_000) 10_000) (1 + Rng.int rng 10_000))
  | 3 ->
    (* numerators/denominators at the native boundary *)
    qpair_of_string
      (Printf.sprintf "%d/%d" (max_int - Rng.int rng 5) (max_int - Rng.int rng 5))
  | 4 ->
    let digits = Rng.int_in rng 20 30 in
    let big rng =
      let b = Buffer.create digits in
      Buffer.add_char b (Char.chr (Char.code '1' + Rng.int rng 9));
      for _ = 2 to digits do
        Buffer.add_char b (Char.chr (Char.code '0' + Rng.int rng 10))
      done;
      Buffer.contents b
    in
    qpair_of_string
      (Printf.sprintf "%s%s/%s" (if Rng.bool rng then "-" else "") (big rng) (big rng))
  | _ -> qpair_of_string (Printf.sprintf "%d.%02d" (Rng.int_in rng (-99) 99) (Rng.int rng 100))

let q_size p = Bigint.num_bits (Rational.num p.qfast) + Bigint.num_bits (Rational.den p.qfast)

let rational_sequence rng stack =
  let depth = Array.length stack in
  for i = 0 to depth - 1 do
    stack.(i) <- random_q_operand rng
  done;
  for _ = 1 to 5 + Rng.int rng 8 do
    let a = stack.(Rng.int rng depth) and b = stack.(Rng.int rng depth) in
    let store p =
      (* Reset runaway operands with a fresh draw; both towers stay in sync. *)
      stack.(Rng.int rng depth) <- (if q_size p > 600 then random_q_operand rng else p)
    in
    match Rng.int rng 10 with
    | 0 | 1 ->
      store (check_q "add" { qfast = Rational.add a.qfast b.qfast; qslow = R.Q.add a.qslow b.qslow })
    | 2 ->
      store (check_q "sub" { qfast = Rational.sub a.qfast b.qfast; qslow = R.Q.sub a.qslow b.qslow })
    | 3 | 4 ->
      store (check_q "mul" { qfast = Rational.mul a.qfast b.qfast; qslow = R.Q.mul a.qslow b.qslow })
    | 5 ->
      if not (Rational.is_zero b.qfast) then
        store
          (check_q "div" { qfast = Rational.div a.qfast b.qfast; qslow = R.Q.div a.qslow b.qslow })
    | 6 ->
      let cf = Stdlib.compare (Rational.compare a.qfast b.qfast) 0 in
      let cs = Stdlib.compare (R.Q.compare a.qslow b.qslow) 0 in
      if cf <> cs then
        Alcotest.failf "rational compare diverged on %s vs %s: fast=%d reference=%d"
          (Rational.to_string a.qfast) (Rational.to_string b.qfast) cf cs;
      if Rational.equal a.qfast b.qfast <> R.Q.equal a.qslow b.qslow then
        Alcotest.failf "rational equal diverged on %s vs %s" (Rational.to_string a.qfast)
          (Rational.to_string b.qfast)
    | 7 ->
      store
        (check_q "floor/ceil"
           (if Rng.bool rng then
              { qfast = Rational.floor a.qfast; qslow = R.Q.floor a.qslow }
            else { qfast = Rational.ceil a.qfast; qslow = R.Q.ceil a.qslow }))
    | 8 ->
      store
        (check_q "restring"
           { qfast = Rational.of_string (R.Q.to_string a.qslow);
             qslow = R.Q.of_string (Rational.to_string a.qfast) })
    | _ ->
      let digits = Rng.int rng 8 in
      let f = Rational.to_decimal_string a.qfast ~digits in
      let s = R.Q.to_decimal_string a.qslow ~digits in
      if not (String.equal f s) then
        Alcotest.failf "rational to_decimal_string diverged on %s: fast=%s reference=%s"
          (Rational.to_string a.qfast) f s
  done

let test_rational_differential () =
  let rng = Rng.create 0xD1FF2 in
  let stack = Array.make 5 (qpair_of_string "0") in
  for _ = 1 to rational_sequences do
    rational_sequence rng stack
  done

(* Lowest-terms and canonical-representation invariants the fast tower
   must keep for structural equality (and hashing) to stay sound. *)
let test_canonical_invariants () =
  let rng = Rng.create 0xCAB0 in
  for _ = 1 to 20_000 do
    let a = random_q_operand rng and b = random_q_operand rng in
    let c = Rational.add a.qfast b.qfast in
    let n = Rational.num c and d = Rational.den c in
    if Bigint.sign d <= 0 then Alcotest.failf "non-positive denominator in %s" (Rational.to_string c);
    if not (Bigint.equal (Bigint.gcd n d) Bigint.one) && not (Rational.is_zero c) then
      Alcotest.failf "not in lowest terms: %s" (Rational.to_string c);
    (* A result that numerically fits the native range must be stored
       natively (canonical Small/Big split). *)
    (match Bigint.to_int_opt n with
     | Some i when i <> min_int && not (Bigint.is_native n) ->
       Alcotest.failf "non-canonical numerator for %s" (Rational.to_string c)
     | _ -> ())
  done

let () =
  Alcotest.run "differential"
    [
      ( "towers",
        [
          ("bigint ops vs reference", `Quick, test_bigint_differential);
          ("rational ops vs reference", `Quick, test_rational_differential);
          ("canonical invariants", `Quick, test_canonical_invariants);
        ] );
    ]
