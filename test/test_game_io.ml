(* Tests for the plain-text game format used by the CLI. *)

open Model
open Numeric

let qi = Rational.of_int
let q = Rational.of_ints
let check_q = Alcotest.testable Rational.pp Rational.equal

let generative_example =
  {|
# three users, two links, two possible network states
links 2
weights 4 3 2
state fast 10 4
state slow 3 4
belief fast: 1
belief slow: 1
belief fast: 1/2, slow: 1/2
|}

let reduced_example = {|
links 2
weights 3 2
capacities 2 1
capacities 1 3
|}

let test_parse_generative () =
  let g = Game_io.parse generative_example in
  Alcotest.(check int) "users" 3 (Game.users g);
  Alcotest.(check int) "links" 2 (Game.links g);
  Alcotest.check check_q "weight" (qi 4) (Game.weight g 0);
  Alcotest.check check_q "optimist capacity" (qi 10) (Game.capacity g 0 0);
  Alcotest.check check_q "pessimist capacity" (qi 3) (Game.capacity g 1 0);
  (* realist: harmonic mean of 10 and 3 → 1/(1/20 + 1/6) = 60/13. *)
  Alcotest.check check_q "realist capacity" (q 60 13) (Game.capacity g 2 0)

let test_parse_reduced () =
  let g = Game_io.parse reduced_example in
  Alcotest.(check int) "users" 2 (Game.users g);
  Alcotest.check check_q "cap" (qi 3) (Game.capacity g 1 1)

let test_roundtrip () =
  let g = Game_io.parse generative_example in
  let g' = Game_io.parse (Game_io.to_string g) in
  Alcotest.(check int) "users preserved" (Game.users g) (Game.users g');
  for i = 0 to Game.users g - 1 do
    Alcotest.check check_q "weights preserved" (Game.weight g i) (Game.weight g' i);
    for l = 0 to Game.links g - 1 do
      Alcotest.check check_q "capacities preserved" (Game.capacity g i l) (Game.capacity g' i l)
    done
  done

let check_invalid name text fragment =
  ( name,
    `Quick,
    fun () ->
      match Game_io.parse text with
      | exception Invalid_argument msg ->
        if
          not
            (String.length msg >= String.length fragment
            &&
            let rec contains i =
              i + String.length fragment <= String.length msg
              && (String.sub msg i (String.length fragment) = fragment || contains (i + 1))
            in
            contains 0)
        then Alcotest.failf "expected %S in %S" fragment msg
      | _ -> Alcotest.fail "expected Invalid_argument" )

let error_cases =
  [
    check_invalid "missing weights" "links 2\ncapacities 1 1\n" "missing 'weights'";
    check_invalid "no body" "links 2\nweights 1 2\n" "need either";
    check_invalid "mixed forms"
      "links 2\nweights 1\nstate a 1 1\nbelief a: 1\ncapacities 1 1\n" "cannot mix";
    check_invalid "bad number" "links 2\nweights 1 x\n" "bad number";
    check_invalid "unknown state" "links 2\nweights 1\nstate a 1 1\nbelief b: 1\n" "unknown state";
    check_invalid "bad distribution" "links 2\nweights 1\nstate a 1 1\nbelief a: 1/2\n"
      "probabilities";
    check_invalid "unknown directive" "links 2\nfrobnicate 3\n" "unknown directive";
    check_invalid "duplicate state" "links 2\nweights 1\nstate a 1 1\nstate a 2 2\nbelief a: 1\n"
      "duplicate state";
    check_invalid "wrong capacity count" "links 2\nweights 1\nstate a 1\nbelief a: 1\n"
      "wrong number";
    check_invalid "one link" "links 1\nweights 1\ncapacities 1\n" "at least two links";
  ]

let test_comments_and_blanks () =
  let g = Game_io.parse "# header\n\nlinks 2\n\nweights 1 1\n# middle\ncapacities 1 2\ncapacities 2 1\n" in
  Alcotest.(check int) "parsed through noise" 2 (Game.users g)

let test_belief_accumulates () =
  (* Repeating a state in one belief line accumulates probability. *)
  let g =
    Game_io.parse "links 2\nweights 1\nstate a 1 2\nbelief a: 1/2, a: 1/2\n"
  in
  Alcotest.check check_q "capacity from accumulated belief" (qi 2) (Game.capacity g 0 1)

let roundtrip_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random games roundtrip through both formats" ~count:100
         QCheck2.Gen.(int_bound 1_000_000)
         (fun seed ->
           let rng = Prng.Rng.create seed in
           let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
           let g =
             Experiments.Generators.game rng ~n ~m
               ~weights:(Experiments.Generators.Rational_weights 5)
               ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 })
           in
           let same g' =
             Game.users g' = n && Game.links g' = m
             && List.for_all
                  (fun i ->
                    Rational.equal (Game.weight g i) (Game.weight g' i)
                    && List.for_all
                         (fun l -> Rational.equal (Game.capacity g i l) (Game.capacity g' i l))
                         (List.init m Fun.id))
                  (List.init n Fun.id)
           in
           same (Game_io.parse (Game_io.to_string g))
           && same (Serve.Wire.decode_game (Serve.Wire.encode_game g))));
  ]

(* ------------------------------------------------------------------ *)
(* Uncertainty backends                                                *)

let participation_example = {|
links 2
uncertainty participation
weights 3 2
presence 1/2 3/4
capacities 2 1
capacities 1 3
|}

let strict_example = {|
links 2
uncertainty strict
weights 3 2
interval 1 2 3 4
interval 2 2 1 5
|}

let test_parse_participation () =
  let g = Game_io.parse participation_example in
  Alcotest.(check bool) "participation kind" true
    (Uncertainty.equal_kind Uncertainty.Participation (Uncertainty.kind (Game.uncertainty g 0)));
  Alcotest.check check_q "presence 0" (q 1 2) (Uncertainty.presence (Game.uncertainty g 0));
  Alcotest.check check_q "presence 1" (q 3 4) (Uncertainty.presence (Game.uncertainty g 1));
  (* Capacities come from the belief exactly as in the Bayesian form;
     the presence only changes contributions and biases. *)
  Alcotest.check check_q "capacity" (qi 2) (Game.capacity g 0 0);
  Alcotest.check check_q "contribution = p·w" (q 3 2) (Game.contribution g 0);
  Alcotest.check check_q "bias = w - t" (q 3 2) (Game.bias g 0);
  Alcotest.(check bool) "not load-linear" false (Game.is_load_linear g);
  (* The belief form accepts the same stanza. *)
  let g' =
    Game_io.parse
      "links 2\nuncertainty participation\nweights 1\npresence 1/3\nstate a 2 1\nbelief a: 1\n"
  in
  Alcotest.check check_q "belief-form presence" (q 1 3) (Uncertainty.presence (Game.uncertainty g' 0))

let test_parse_strict () =
  let g = Game_io.parse strict_example in
  let u = Game.uncertainty g 0 in
  Alcotest.(check bool) "strict kind" true
    (Uncertainty.equal_kind Uncertainty.Strict (Uncertainty.kind u));
  (* Decisions price the lo endpoints; both bounds survive parsing. *)
  Alcotest.check check_q "worst-case capacity" (qi 1) (Game.capacity g 0 0);
  (match Uncertainty.strict_bounds u with
   | Some (lo, hi) ->
     Alcotest.check check_q "lo" (qi 3) (State.capacity lo 1);
     Alcotest.check check_q "hi" (qi 4) (State.capacity hi 1)
   | None -> Alcotest.fail "expected strict bounds");
  Alcotest.(check bool) "strict games are load-linear" true (Game.is_load_linear g)

let same_uncertainty g g' =
  Game.users g = Game.users g'
  && List.for_all
       (fun i -> Uncertainty.equal (Game.uncertainty g i) (Game.uncertainty g' i))
       (List.init (Game.users g) Fun.id)

let test_backend_roundtrips () =
  let p = Game_io.parse participation_example in
  Alcotest.(check bool) "participation reduced roundtrip" true
    (same_uncertainty p (Game_io.parse (Game_io.to_string p)));
  let s = Game_io.parse strict_example in
  Alcotest.(check bool) "strict roundtrip keeps both bounds" true
    (same_uncertainty s (Game_io.parse (Game_io.to_string s)))

let test_bayesian_output_byte_identical () =
  (* All-Bayesian games must render exactly as before the stanza
     existed: no 'uncertainty' line anywhere. *)
  let g = Game_io.parse reduced_example in
  let rendered = Game_io.to_string g in
  Alcotest.(check string) "pre-stanza byte identity" "links 2\nweights 3 2\ncapacities 2 1\ncapacities 1 3\n"
    rendered

let test_mixed_kinds_unserialisable () =
  let g =
    Game.make_uncertain ~weights:[| qi 1; qi 1 |]
      ~uncertainty:
        [|
          Uncertainty.bayesian (Belief.certain (State.make [| qi 1; qi 2 |]));
          Uncertainty.strict_of_intervals [| (qi 1, qi 1); (qi 2, qi 2) |];
        |]
  in
  Alcotest.check_raises "to_string rejects mixed kinds"
    (Invalid_argument "Game_io.to_string: cannot serialise mixed uncertainty backends")
    (fun () -> ignore (Game_io.to_string g))

let backend_error_cases =
  [
    check_invalid "presence without stanza" "links 2\nweights 1\npresence 1/2\ncapacities 1 1\n"
      "'presence' requires 'uncertainty participation'";
    check_invalid "interval without stanza" "links 2\nweights 1\ninterval 1 1 2 2\n"
      "'interval' rows require 'uncertainty strict'";
    check_invalid "participation needs presence"
      "links 2\nuncertainty participation\nweights 1\ncapacities 1 1\n"
      "requires a 'presence' line";
    check_invalid "strict forbids capacities"
      "links 2\nuncertainty strict\nweights 1\ncapacities 1 1\ninterval 1 1 2 2\n"
      "uses 'interval' rows only";
    check_invalid "strict needs intervals" "links 2\nuncertainty strict\nweights 1\n"
      "requires 'interval' rows";
    check_invalid "odd interval row" "links 2\nuncertainty strict\nweights 1\ninterval 1 1 2\n"
      "'lo hi' capacity pairs";
    check_invalid "empty interval" "links 2\nuncertainty strict\nweights 1\ninterval 2 1 1 1\n"
      "interval is empty";
    check_invalid "presence count mismatch"
      "links 2\nuncertainty participation\nweights 1 1\npresence 1/2\ncapacities 1 1\ncapacities 1 1\n"
      "presence line has 1 entries, expected 2";
    check_invalid "presence out of range"
      "links 2\nuncertainty participation\nweights 1\npresence 0\ncapacities 1 1\n"
      "presence must lie in (0, 1]";
    check_invalid "unknown backend" "links 2\nuncertainty fuzzy\nweights 1\ncapacities 1 1\n"
      "unknown uncertainty backend";
    check_invalid "duplicate stanza"
      "links 2\nuncertainty strict\nuncertainty strict\nweights 1\ninterval 1 1 2 2\n"
      "duplicate 'uncertainty' directive";
  ]

(* ------------------------------------------------------------------ *)
(* Class form                                                          *)

let class_example = {|
# one heavy class, one light class
links 3
class 1000000 1 3 2 1
class 5 1/2 1 3 2
|}

let test_parse_class_form () =
  let g = Game_io.parse_cgame class_example in
  Alcotest.(check int) "classes" 2 (Cgame.classes g);
  Alcotest.(check int) "users" 1_000_005 (Cgame.users g);
  Alcotest.(check int) "links" 3 (Cgame.links g);
  Alcotest.(check int) "count" 1_000_000 (Cgame.count g 0);
  Alcotest.check check_q "weight" (q 1 2) (Cgame.weight g 1);
  Alcotest.check check_q "capacity" (qi 2) (Cgame.capacity g 0 1);
  Alcotest.check check_q "total traffic" (q 2000005 2) (Cgame.total_traffic g)

let test_class_roundtrip () =
  let g = Game_io.parse_cgame class_example in
  let g' = Game_io.parse_cgame (Game_io.to_class_string g) in
  Alcotest.(check int) "classes preserved" (Cgame.classes g) (Cgame.classes g');
  for c = 0 to Cgame.classes g - 1 do
    Alcotest.(check int) "counts preserved" (Cgame.count g c) (Cgame.count g' c);
    Alcotest.check check_q "weights preserved" (Cgame.weight g c) (Cgame.weight g' c);
    for l = 0 to Cgame.links g - 1 do
      Alcotest.check check_q "capacities preserved" (Cgame.capacity g c l)
        (Cgame.capacity g' c l)
    done
  done

(* Width inference without a 'links' directive, comments and blanks. *)
let test_class_width_inference () =
  let g = Game_io.parse_cgame "# no links line\n\nclass 3 1 1 2\n# comment\nclass 2 2 2 1\n" in
  Alcotest.(check int) "links inferred" 2 (Cgame.links g);
  Alcotest.(check int) "classes" 2 (Cgame.classes g)

let check_invalid_class name text fragment =
  ( name,
    `Quick,
    fun () ->
      match Game_io.parse_cgame text with
      | exception Invalid_argument msg ->
        if
          not
            (String.length msg >= String.length fragment
            &&
            let rec contains i =
              i + String.length fragment <= String.length msg
              && (String.sub msg i (String.length fragment) = fragment || contains (i + 1))
            in
            contains 0)
        then Alcotest.failf "expected %S in %S" fragment msg
      | _ -> Alcotest.fail "expected Invalid_argument" )

let class_error_cases =
  [
    (* Malformed rows carry their line number. *)
    check_invalid_class "bad count" "links 2\nclass x 1 1 1\n" "line 2: bad class count";
    check_invalid_class "negative count" "links 2\nclass -3 1 1 1\n"
      "line 2: class count must be positive";
    check_invalid_class "zero count" "links 2\nclass 0 1 1 1\n"
      "line 2: class count must be positive";
    check_invalid_class "short row" "links 2\nclass 2 1\n" "line 2: class row needs capacities";
    check_invalid_class "bare row" "links 2\nclass 2\n"
      "line 2: expected: class <count> <weight>";
    check_invalid_class "width mismatch" "links 2\nclass 2 1 1 1\nclass 2 1 1 1 1\n"
      "line 3: class row has wrong number of capacities (3, expected 2)";
    check_invalid_class "bad weight" "links 2\nclass 2 y 1 1\n" "line 2: bad number \"y\"";
    check_invalid_class "per-user directive" "links 2\nweights 1 2\nclass 2 1 1 1\n"
      "line 2: per-user directives cannot appear";
    check_invalid_class "unknown directive" "links 2\nfrobnicate\n" "line 2: unknown directive";
    check_invalid_class "no rows" "links 2\n" "need at least one 'class' row";
    check_invalid_class "one link" "class 2 1 5\n" "Cgame.make: at least two links";
    (* And the per-user parser points class rows at the class entry
       points instead of a generic unknown-directive error. *)
    ( "class row in per-user parser",
      `Quick,
      fun () ->
        match Game_io.parse "links 2\nclass 2 1 1 1\n" with
        | exception Invalid_argument msg ->
          if
            not
              (let needle = "parse_cgame" in
               let rec contains i =
                 i + String.length needle <= String.length msg
                 && (String.sub msg i (String.length needle) = needle || contains (i + 1))
               in
               contains 0)
          then Alcotest.failf "expected a class-form hint in %S" msg
        | _ -> Alcotest.fail "expected Invalid_argument" );
  ]

let class_roundtrip_properties =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"random class games roundtrip through the class form" ~count:200
         QCheck2.Gen.(int_bound 1_000_000)
         (fun seed ->
           let rng = Prng.Rng.create seed in
           let k = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
           let g =
             Cgame.of_capacities
               ~counts:(Array.init k (fun _ -> 1 + Prng.Rng.int rng 1_000_000))
               ~weights:(Array.init k (fun _ -> Rational.of_ints (1 + Prng.Rng.int rng 5) (1 + Prng.Rng.int rng 3)))
               (Array.init k (fun _ ->
                    Array.init m (fun _ -> Rational.of_ints (1 + Prng.Rng.int rng 5) (1 + Prng.Rng.int rng 2))))
           in
           let g' = Game_io.parse_cgame (Game_io.to_class_string g) in
           Cgame.classes g' = k
           && List.for_all
                (fun c ->
                  Cgame.count g' c = Cgame.count g c
                  && Rational.equal (Cgame.weight g' c) (Cgame.weight g c)
                  && List.for_all
                       (fun l -> Rational.equal (Cgame.capacity g' c l) (Cgame.capacity g c l))
                       (List.init m Fun.id))
                (List.init k Fun.id)));
  ]

let class_participation_example = {|
links 2
uncertainty participation
presence 1/2 1
class 10 1 2 1
class 5 1/2 1 3
|}

let class_strict_example = {|
links 2
uncertainty strict
class 10 1 2 3 1 2
class 5 1/2 1 1 3 5
|}

let test_parse_class_backends () =
  let g = Game_io.parse_cgame class_participation_example in
  Alcotest.(check bool) "participation kind" true
    (Uncertainty.equal_kind Uncertainty.Participation (Uncertainty.kind (Cgame.uncertainty g 0)));
  Alcotest.check check_q "class presence" (q 1 2) (Uncertainty.presence (Cgame.uncertainty g 0));
  Alcotest.check check_q "class contribution" (q 1 2) (Cgame.contribution g 0);
  Alcotest.(check bool) "p = 1 class keeps load-linearity per class" true
    (Uncertainty.is_load_linear (Cgame.uncertainty g 1));
  Alcotest.(check bool) "game is not load-linear" false (Cgame.is_load_linear g);
  let s = Game_io.parse_cgame class_strict_example in
  Alcotest.check check_q "strict class prices lo" (qi 2) (Cgame.capacity s 0 0);
  (match Uncertainty.strict_bounds (Cgame.uncertainty s 0) with
   | Some (_, hi) -> Alcotest.check check_q "hi kept" (qi 3) (State.capacity hi 0)
   | None -> Alcotest.fail "expected strict bounds")

let test_class_backend_roundtrips () =
  let same g g' =
    Cgame.classes g = Cgame.classes g'
    && List.for_all
         (fun c ->
           Cgame.count g c = Cgame.count g' c
           && Uncertainty.equal (Cgame.uncertainty g c) (Cgame.uncertainty g' c))
         (List.init (Cgame.classes g) Fun.id)
  in
  let p = Game_io.parse_cgame class_participation_example in
  Alcotest.(check bool) "class participation roundtrip" true
    (same p (Game_io.parse_cgame (Game_io.to_class_string p)));
  let s = Game_io.parse_cgame class_strict_example in
  Alcotest.(check bool) "class strict roundtrip" true
    (same s (Game_io.parse_cgame (Game_io.to_class_string s)))

let class_backend_error_cases =
  [
    check_invalid_class "class presence count"
      "links 2\nuncertainty participation\npresence 1/2\nclass 2 1 1 1\nclass 2 1 1 1\n"
      "presence line has 1 entries, expected 2 (one per class)";
    check_invalid_class "class strict odd row"
      "links 2\nuncertainty strict\nclass 2 1 1 2 3\n"
      "strict class row needs 'lo hi' capacity pairs";
    check_invalid_class "class presence without stanza"
      "links 2\npresence 1/2\nclass 2 1 1 1\n"
      "'presence' requires 'uncertainty participation'";
  ]

let suite =
  [
    ("parse generative form", `Quick, test_parse_generative);
    ("parse reduced form", `Quick, test_parse_reduced);
    ("roundtrip through to_string", `Quick, test_roundtrip);
    ("comments and blanks", `Quick, test_comments_and_blanks);
    ("belief probabilities accumulate", `Quick, test_belief_accumulates);
    ("parse participation", `Quick, test_parse_participation);
    ("parse strict", `Quick, test_parse_strict);
    ("backend roundtrips", `Quick, test_backend_roundtrips);
    ("bayesian output byte-identical", `Quick, test_bayesian_output_byte_identical);
    ("mixed kinds unserialisable", `Quick, test_mixed_kinds_unserialisable);
  ]
  @ error_cases @ backend_error_cases

let class_suite =
  [
    ("parse class form", `Quick, test_parse_class_form);
    ("class roundtrip", `Quick, test_class_roundtrip);
    ("class width inference", `Quick, test_class_width_inference);
    ("class backends", `Quick, test_parse_class_backends);
    ("class backend roundtrips", `Quick, test_class_backend_roundtrips);
  ]
  @ class_error_cases @ class_backend_error_cases

let () =
  Alcotest.run "game_io"
    [
      ("unit", suite);
      ("roundtrip", roundtrip_properties);
      ("class", class_suite @ class_roundtrip_properties);
    ]
