(* Tests for the game model: states, beliefs, effective capacities,
   pure/mixed latencies, the exact Nash predicates, social costs, the
   pure optimum, and the bound values of Theorems 4.13/4.14. *)

open Model
open Numeric

let q = Rational.of_ints
let qi = Rational.of_int
let check_q = Alcotest.testable Rational.pp Rational.equal

let prop name ?(count = 150) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* A two-state space over two links used by several fixtures:
   φ1 = ⟨2, 1⟩, φ2 = ⟨1, 3⟩. *)
let space2 =
  State.space [ State.make [| qi 2; qi 1 |]; State.make [| qi 1; qi 3 |] ]

(* ------------------------------------------------------------------ *)
(* State                                                               *)

let test_state_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "State.make: no links") (fun () ->
      ignore (State.make [||]));
  Alcotest.check_raises "non-positive" (Invalid_argument "State.make: capacities must be positive")
    (fun () -> ignore (State.make [| qi 1; Rational.zero |]));
  Alcotest.check_raises "empty space" (Invalid_argument "State.space: empty state space")
    (fun () -> ignore (State.space []));
  Alcotest.check_raises "ragged space"
    (Invalid_argument "State.space: inconsistent link counts") (fun () ->
      ignore (State.space [ State.make [| qi 1 |]; State.make [| qi 1; qi 2 |] ]))

let test_state_accessors () =
  let s = State.of_ints [| 2; 5 |] in
  Alcotest.(check int) "links" 2 (State.links s);
  Alcotest.check check_q "capacity" (qi 5) (State.capacity s 1);
  Alcotest.check_raises "out of range" (Invalid_argument "State.capacity: link out of range")
    (fun () -> ignore (State.capacity s 2));
  Alcotest.(check int) "space size" 2 (State.space_size space2);
  Alcotest.(check int) "space links" 2 (State.space_links space2)

(* ------------------------------------------------------------------ *)
(* Belief                                                              *)

let test_belief_validation () =
  Alcotest.check_raises "wrong dimension"
    (Invalid_argument "Belief.make: distribution dimension differs from state-space size")
    (fun () -> ignore (Belief.make space2 [| Rational.one |]));
  Alcotest.check_raises "not a distribution"
    (Invalid_argument "Belief.make: probabilities must be non-negative and sum to 1") (fun () ->
      ignore (Belief.make space2 [| q 1 2; q 1 3 |]));
  Alcotest.check_raises "point out of range"
    (Invalid_argument "Belief.point: state index out of range") (fun () ->
      ignore (Belief.point space2 2))

let test_belief_condition_impossible_event () =
  (* The exact message is part of the API: conditioning on an event the
     prior rules out has no posterior. *)
  let b = Belief.point space2 0 in
  Alcotest.check_raises "prior-null event"
    (Invalid_argument "Belief.condition: event has prior probability zero") (fun () ->
      ignore (Belief.condition b ~event:(fun k -> k = 1)));
  Alcotest.check_raises "empty event"
    (Invalid_argument "Belief.condition: event has prior probability zero") (fun () ->
      ignore (Belief.condition b ~event:(fun _ -> false)))

let test_effective_capacity_harmonic () =
  (* b = (1/2, 1/2): 1/c^0 = (1/2)(1/2) + (1/2)(1/1) = 3/4, so c^0 = 4/3;
     1/c^1 = (1/2)(1/1) + (1/2)(1/3) = 2/3, so c^1 = 3/2. *)
  let b = Belief.uniform space2 in
  Alcotest.check check_q "link 0" (q 4 3) (Belief.effective_capacity b 0);
  Alcotest.check check_q "link 1" (q 3 2) (Belief.effective_capacity b 1);
  Alcotest.check check_q "expected inverse" (q 3 4) (Belief.expected_inverse_capacity b 0)

let test_point_belief_capacity () =
  let b = Belief.point space2 1 in
  Alcotest.check check_q "link 0 of φ2" (qi 1) (Belief.effective_capacity b 0);
  Alcotest.check check_q "link 1 of φ2" (qi 3) (Belief.effective_capacity b 1)

let test_uniform_link_view_predicate () =
  let flat = Belief.certain (State.make [| qi 5; qi 5 |]) in
  Alcotest.(check bool) "flat is uniform" true (Belief.is_uniform_link_view flat);
  Alcotest.(check bool) "space2 point is not" false
    (Belief.is_uniform_link_view (Belief.point space2 0))

(* ------------------------------------------------------------------ *)
(* Game                                                                *)

let game_fixture () =
  (* Two users: user 0 believes φ1 surely, user 1 believes uniformly. *)
  Game.make
    ~weights:[| qi 3; qi 2 |]
    ~beliefs:[| Belief.point space2 0; Belief.uniform space2 |]

let test_game_validation () =
  Alcotest.check_raises "no users" (Invalid_argument "Game.make: no users") (fun () ->
      ignore (Game.make ~weights:[||] ~beliefs:[||]));
  Alcotest.check_raises "bad weight" (Invalid_argument "Game.make: traffics must be positive")
    (fun () ->
      ignore (Game.make ~weights:[| Rational.zero |] ~beliefs:[| Belief.point space2 0 |]));
  Alcotest.check_raises "belief count"
    (Invalid_argument "Game.make: one belief per user required") (fun () ->
      ignore (Game.make ~weights:[| qi 1; qi 1 |] ~beliefs:[| Belief.point space2 0 |]));
  Alcotest.check_raises "single link" (Invalid_argument "Game.make: at least two links required")
    (fun () ->
      ignore
        (Game.make ~weights:[| qi 1 |] ~beliefs:[| Belief.certain (State.make [| qi 1 |]) |]))

let test_game_accessors () =
  let g = game_fixture () in
  Alcotest.(check int) "users" 2 (Game.users g);
  Alcotest.(check int) "links" 2 (Game.links g);
  Alcotest.check check_q "weight" (qi 3) (Game.weight g 0);
  Alcotest.check check_q "total" (qi 5) (Game.total_traffic g);
  Alcotest.check check_q "cap user0 link0" (qi 2) (Game.capacity g 0 0);
  Alcotest.check check_q "cap user1 link0" (q 4 3) (Game.capacity g 1 0);
  Alcotest.(check bool) "not kp" false (Game.is_kp g);
  Alcotest.(check bool) "not uniform" false (Game.has_uniform_beliefs g);
  Alcotest.(check bool) "not symmetric" false (Game.is_symmetric g)

let test_game_predicates () =
  let kp = Game.kp ~weights:[| qi 1; qi 2 |] ~capacities:[| qi 1; qi 2 |] in
  Alcotest.(check bool) "kp is kp" true (Game.is_kp kp);
  let flat = Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 2; qi 2 |]; [| qi 5; qi 5 |] |] in
  Alcotest.(check bool) "uniform beliefs" true (Game.has_uniform_beliefs flat);
  Alcotest.(check bool) "symmetric" true (Game.is_symmetric flat);
  Alcotest.(check bool) "flat not kp" false (Game.is_kp flat)

(* Every constructor error of [Game] and [Cgame], message pinned
   exactly; the per-user and class constructors share one validator, so
   the table also pins which prefix each entry point reports under. *)
let ones = Array.make 2 Rational.one
let row2 = [| qi 1; qi 2 |]
let b2 = Belief.certain (State.make row2)
let b1 = Belief.certain (State.make [| qi 1 |])
let u2 = Uncertainty.bayesian b2
let u1 = Uncertainty.bayesian b1
let bad = [| Rational.zero; qi 1 |]

let constructor_errors =
  [
    ( "Game.make empty",
      "Game.make: no users",
      fun () -> ignore (Game.make ~weights:[||] ~beliefs:[||]) );
    ( "Game.make arity",
      "Game.make: one belief per user required",
      fun () -> ignore (Game.make ~weights:ones ~beliefs:[| b2 |]) );
    ( "Game.make traffic",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.make ~weights:bad ~beliefs:[| b2; b2 |]) );
    ( "Game.make links disagree",
      "Game.make: beliefs disagree on link count",
      fun () -> ignore (Game.make ~weights:ones ~beliefs:[| b2; b1 |]) );
    ( "Game.make one link",
      "Game.make: at least two links required",
      fun () -> ignore (Game.make ~weights:ones ~beliefs:[| b1; b1 |]) );
    ( "Game.make_uncertain empty",
      "Game.make: no users",
      fun () -> ignore (Game.make_uncertain ~weights:[||] ~uncertainty:[||]) );
    ( "Game.make_uncertain arity",
      "Game.make: one uncertainty backend per user required",
      fun () -> ignore (Game.make_uncertain ~weights:ones ~uncertainty:[| u2 |]) );
    ( "Game.make_uncertain traffic",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.make_uncertain ~weights:bad ~uncertainty:[| u2; u2 |]) );
    ( "Game.make_uncertain links disagree",
      "Game.make: beliefs disagree on link count",
      fun () -> ignore (Game.make_uncertain ~weights:ones ~uncertainty:[| u2; u1 |]) );
    ( "Game.make_uncertain one link",
      "Game.make: at least two links required",
      fun () -> ignore (Game.make_uncertain ~weights:ones ~uncertainty:[| u1; u1 |]) );
    ( "Game.of_capacities empty",
      "Game.make: no users",
      fun () -> ignore (Game.of_capacities ~weights:[||] [||]) );
    ( "Game.of_capacities traffic",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.of_capacities ~weights:bad [| row2; row2 |]) );
    ( "Game.of_capacities arity",
      "Game.of_capacities: one capacity row per user required",
      fun () -> ignore (Game.of_capacities ~weights:ones [| row2 |]) );
    ( "Game.of_capacities empty row",
      "State.make: no links",
      fun () -> ignore (Game.of_capacities ~weights:ones [| row2; [||] |]) );
    ( "Game.of_capacities capacity",
      "State.make: capacities must be positive",
      fun () -> ignore (Game.of_capacities ~weights:ones [| row2; bad |]) );
    ( "Game.of_capacities links disagree",
      "Game.make: beliefs disagree on link count",
      fun () -> ignore (Game.of_capacities ~weights:ones [| row2; [| qi 1 |] |]) );
    ( "Game.of_capacities one link",
      "Game.make: at least two links required",
      fun () -> ignore (Game.of_capacities ~weights:ones [| [| qi 1 |]; [| qi 1 |] |]) );
    ( "Game.kp empty",
      "Game.make: no users",
      fun () -> ignore (Game.kp ~weights:[||] ~capacities:row2) );
    ( "Game.kp traffic",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.kp ~weights:bad ~capacities:row2) );
    ( "Game.kp no links",
      "State.make: no links",
      fun () -> ignore (Game.kp ~weights:ones ~capacities:[||]) );
    ( "Game.kp capacity",
      "State.make: capacities must be positive",
      fun () -> ignore (Game.kp ~weights:ones ~capacities:bad) );
    ( "Game.kp one link",
      "Game.make: at least two links required",
      fun () -> ignore (Game.kp ~weights:ones ~capacities:[| qi 1 |]) );
    ( "Cgame.make empty",
      "Cgame.make: no classes",
      fun () -> ignore (Cgame.make ~counts:[||] ~weights:[||] ~beliefs:[||]) );
    ( "Cgame.make arity",
      "Cgame.make: one count, weight and belief per class required",
      fun () -> ignore (Cgame.make ~counts:[| 1; 1 |] ~weights:ones ~beliefs:[| b2 |]) );
    ( "Cgame.make traffic",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.make ~counts:[| 1; 1 |] ~weights:bad ~beliefs:[| b2; b2 |]) );
    ( "Cgame.make links disagree",
      "Cgame.make: beliefs disagree on link count",
      fun () -> ignore (Cgame.make ~counts:[| 1; 1 |] ~weights:ones ~beliefs:[| b2; b1 |]) );
    ( "Cgame.make one link",
      "Cgame.make: at least two links required",
      fun () -> ignore (Cgame.make ~counts:[| 1; 1 |] ~weights:ones ~beliefs:[| b1; b1 |]) );
    ( "Cgame.make count",
      "Cgame.make: class counts must be positive",
      fun () -> ignore (Cgame.make ~counts:[| 1; 0 |] ~weights:ones ~beliefs:[| b2; b2 |]) );
    ( "Cgame.make overflow",
      "Cgame.make: total user count overflows a native int",
      fun () -> ignore (Cgame.make ~counts:[| max_int; 1 |] ~weights:ones ~beliefs:[| b2; b2 |]) );
    ( "Cgame.make_uncertain empty",
      "Cgame.make: no classes",
      fun () -> ignore (Cgame.make_uncertain ~counts:[||] ~weights:[||] ~uncertainty:[||]) );
    ( "Cgame.make_uncertain arity",
      "Cgame.make: one count, weight and belief per class required",
      fun () -> ignore (Cgame.make_uncertain ~counts:[| 1; 1 |] ~weights:ones ~uncertainty:[| u2 |])
    );
    ( "Cgame.make_uncertain traffic",
      "Cgame.make: traffics must be positive",
      fun () ->
        ignore (Cgame.make_uncertain ~counts:[| 1; 1 |] ~weights:bad ~uncertainty:[| u2; u2 |]) );
    ( "Cgame.make_uncertain links disagree",
      "Cgame.make: beliefs disagree on link count",
      fun () ->
        ignore (Cgame.make_uncertain ~counts:[| 1; 1 |] ~weights:ones ~uncertainty:[| u2; u1 |]) );
    ( "Cgame.make_uncertain one link",
      "Cgame.make: at least two links required",
      fun () ->
        ignore (Cgame.make_uncertain ~counts:[| 1; 1 |] ~weights:ones ~uncertainty:[| u1; u1 |]) );
    ( "Cgame.make_uncertain count",
      "Cgame.make: class counts must be positive",
      fun () ->
        ignore (Cgame.make_uncertain ~counts:[| -1; 1 |] ~weights:ones ~uncertainty:[| u2; u2 |]) );
    ( "Cgame.make_uncertain overflow",
      "Cgame.make: total user count overflows a native int",
      fun () ->
        ignore
          (Cgame.make_uncertain ~counts:[| 1; max_int |] ~weights:ones ~uncertainty:[| u2; u2 |]) );
    ( "Cgame.of_capacities empty",
      "Cgame.make: no classes",
      fun () -> ignore (Cgame.of_capacities ~counts:[||] ~weights:[||] [||]) );
    ( "Cgame.of_capacities rows",
      "Cgame.of_capacities: one capacity row per class required",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:ones [| row2 |]) );
    ( "Cgame.of_capacities arity",
      "Cgame.make: one count, weight and belief per class required",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1 |] ~weights:ones [| row2 |]) );
    ( "Cgame.of_capacities empty row",
      "State.make: no links",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:ones [| row2; [||] |]) );
    ( "Cgame.of_capacities capacity",
      "State.make: capacities must be positive",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:ones [| row2; bad |]) );
    ( "Cgame.of_capacities traffic",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:bad [| row2; row2 |]) );
    ( "Cgame.of_capacities links disagree",
      "Cgame.make: beliefs disagree on link count",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:ones [| row2; [| qi 1 |] |])
    );
    ( "Cgame.of_capacities one link",
      "Cgame.make: at least two links required",
      fun () ->
        ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:ones [| [| qi 1 |]; [| qi 1 |] |]) );
    ( "Cgame.of_capacities count",
      "Cgame.make: class counts must be positive",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 0; 1 |] ~weights:ones [| row2; row2 |]) );
    ( "Cgame.of_capacities overflow",
      "Cgame.make: total user count overflows a native int",
      fun () ->
        ignore (Cgame.of_capacities ~counts:[| max_int; max_int |] ~weights:ones [| row2; row2 |]) );
    ( "Cgame.kp empty",
      "Cgame.make: no classes",
      fun () -> ignore (Cgame.kp ~counts:[||] ~weights:[||] ~capacities:row2) );
    ( "Cgame.kp arity",
      "Cgame.make: one count, weight and belief per class required",
      fun () -> ignore (Cgame.kp ~counts:[| 1 |] ~weights:ones ~capacities:row2) );
    ( "Cgame.kp no links",
      "State.make: no links",
      fun () -> ignore (Cgame.kp ~counts:[| 1; 1 |] ~weights:ones ~capacities:[||]) );
    ( "Cgame.kp capacity",
      "State.make: capacities must be positive",
      fun () -> ignore (Cgame.kp ~counts:[| 1; 1 |] ~weights:ones ~capacities:bad) );
    ( "Cgame.kp traffic",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.kp ~counts:[| 1; 1 |] ~weights:bad ~capacities:row2) );
    ( "Cgame.kp one link",
      "Cgame.make: at least two links required",
      fun () -> ignore (Cgame.kp ~counts:[| 1; 1 |] ~weights:ones ~capacities:[| qi 1 |]) );
    ( "Cgame.kp count",
      "Cgame.make: class counts must be positive",
      fun () -> ignore (Cgame.kp ~counts:[| 1; 0 |] ~weights:ones ~capacities:row2) );
    ( "Cgame.kp overflow",
      "Cgame.make: total user count overflows a native int",
      fun () -> ignore (Cgame.kp ~counts:[| max_int; 1 |] ~weights:ones ~capacities:row2) );
  ]

(* Inputs with two faults each: the message names the one reported
   first. *)
let constructor_fault_order =
  [
    ( "Game.make arity before traffic",
      "Game.make: one belief per user required",
      fun () -> ignore (Game.make ~weights:bad ~beliefs:[| b2 |]) );
    ( "Game.make traffic before link count",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.make ~weights:bad ~beliefs:[| b2; b1 |]) );
    ( "Game.make disagreement before one link",
      "Game.make: beliefs disagree on link count",
      fun () -> ignore (Game.make ~weights:ones ~beliefs:[| b1; b2 |]) );
    ( "Game.make_uncertain traffic before arity",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.make_uncertain ~weights:bad ~uncertainty:[| u2 |]) );
    ( "Game.make_uncertain traffic before one link",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.make_uncertain ~weights:bad ~uncertainty:[| u1; u1 |]) );
    ( "Game.of_capacities traffic before arity",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.of_capacities ~weights:bad [| row2 |]) );
    ( "Game.of_capacities arity before capacity",
      "Game.of_capacities: one capacity row per user required",
      fun () -> ignore (Game.of_capacities ~weights:ones [| bad |]) );
    ( "Game.of_capacities traffic before capacity",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.of_capacities ~weights:bad [| row2; bad |]) );
    ( "Game.kp traffic before capacity",
      "Game.make: traffics must be positive",
      fun () -> ignore (Game.kp ~weights:bad ~capacities:[||]) );
    ( "Cgame.make empty before arity",
      "Cgame.make: no classes",
      fun () -> ignore (Cgame.make ~counts:[||] ~weights:ones ~beliefs:[| b2 |]) );
    ( "Cgame.make arity before traffic",
      "Cgame.make: one count, weight and belief per class required",
      fun () -> ignore (Cgame.make ~counts:[| 1 |] ~weights:bad ~beliefs:[| b2 |]) );
    ( "Cgame.make traffic before count",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.make ~counts:[| 0; 1 |] ~weights:bad ~beliefs:[| b2; b2 |]) );
    ( "Cgame.make traffic before link count",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.make ~counts:[| 1; 1 |] ~weights:bad ~beliefs:[| b2; b1 |]) );
    ( "Cgame.make one link before count",
      "Cgame.make: at least two links required",
      fun () -> ignore (Cgame.make ~counts:[| 0; 1 |] ~weights:ones ~beliefs:[| b1; b1 |]) );
    ( "Cgame.make disagreement before overflow",
      "Cgame.make: beliefs disagree on link count",
      fun () -> ignore (Cgame.make ~counts:[| max_int; 1 |] ~weights:ones ~beliefs:[| b2; b1 |]) );
    ( "Cgame.make count before overflow",
      "Cgame.make: class counts must be positive",
      fun () ->
        ignore (Cgame.make ~counts:[| 0; max_int; 1 |] ~weights:[| qi 1; qi 1; qi 1 |]
                  ~beliefs:[| b2; b2; b2 |]) );
    ( "Cgame.make overflow before count",
      "Cgame.make: total user count overflows a native int",
      fun () ->
        ignore (Cgame.make ~counts:[| max_int; 1; 0 |] ~weights:[| qi 1; qi 1; qi 1 |]
                  ~beliefs:[| b2; b2; b2 |]) );
    ( "Cgame.of_capacities rows before empty",
      "Cgame.of_capacities: one capacity row per class required",
      fun () -> ignore (Cgame.of_capacities ~counts:[||] ~weights:[||] [| row2 |]) );
    ( "Cgame.of_capacities capacity before traffic",
      "State.make: capacities must be positive",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1; 1 |] ~weights:bad [| row2; bad |]) );
    ( "Cgame.of_capacities capacity before arity",
      "State.make: capacities must be positive",
      fun () -> ignore (Cgame.of_capacities ~counts:[| 1 |] ~weights:ones [| bad |]) );
    ( "Cgame.kp capacity before empty",
      "State.make: no links",
      fun () -> ignore (Cgame.kp ~counts:[||] ~weights:[||] ~capacities:[||]) );
    ( "Cgame.kp traffic before count",
      "Cgame.make: traffics must be positive",
      fun () -> ignore (Cgame.kp ~counts:[| 0; 1 |] ~weights:bad ~capacities:row2) );
  ]

let check_messages table () =
  List.iter
    (fun (label, msg, thunk) -> Alcotest.check_raises label (Invalid_argument msg) thunk)
    table

let test_of_capacities_matches_beliefs () =
  (* The reduced form must agree with the generative form. *)
  let g = game_fixture () in
  let reduced = Game.of_capacities ~weights:(Game.weights g) (Game.capacity_matrix g) in
  for i = 0 to 1 do
    for l = 0 to 1 do
      Alcotest.check check_q "capacity agrees" (Game.capacity g i l) (Game.capacity reduced i l)
    done
  done

(* ------------------------------------------------------------------ *)
(* Pure profiles                                                       *)

let test_pure_latency_hand () =
  let g = game_fixture () in
  (* σ = ⟨0, 0⟩: load on link 0 is 5.  user0: 5/2; user1: 5/(4/3) = 15/4. *)
  let sigma = [| 0; 0 |] in
  Alcotest.check check_q "user0" (q 5 2) (Pure.latency g sigma 0);
  Alcotest.check check_q "user1" (q 15 4) (Pure.latency g sigma 1);
  (* σ = ⟨0, 1⟩: user0 alone on 0: 3/2; user1 alone on 1: 2/(3/2) = 4/3. *)
  let sigma = [| 0; 1 |] in
  Alcotest.check check_q "split user0" (q 3 2) (Pure.latency g sigma 0);
  Alcotest.check check_q "split user1" (q 4 3) (Pure.latency g sigma 1)

let test_pure_latency_on_link () =
  let g = game_fixture () in
  let sigma = [| 0; 1 |] in
  (* user0 moving to link 1 would see (2 + 3)/1 = 5. *)
  Alcotest.check check_q "hypothetical move" (qi 5) (Pure.latency_on_link g sigma 0 1);
  Alcotest.check check_q "current link unchanged" (q 3 2) (Pure.latency_on_link g sigma 0 0)

let test_pure_nash_hand () =
  let g = game_fixture () in
  (* ⟨0, 1⟩: user0 has 3/2 vs moving 5 — stays; user1 has 4/3 vs moving
     (2+3)/(4/3) = 15/4 — stays.  It is a NE. *)
  Alcotest.(check bool) "split is NE" true (Pure.is_nash g [| 0; 1 |]);
  (* ⟨0, 0⟩: user1 has 15/4 vs moving 2/(3/2) = 4/3 — defects. *)
  Alcotest.(check bool) "pile is not NE" false (Pure.is_nash g [| 0; 0 |]);
  Alcotest.(check (list int)) "defector list" [ 1 ] (Pure.defectors g [| 0; 0 |])

let test_pure_best_response () =
  let g = game_fixture () in
  let link, latency = Pure.best_response g [| 0; 0 |] 1 in
  Alcotest.(check int) "target" 1 link;
  Alcotest.check check_q "value" (q 4 3) latency;
  Alcotest.(check (list int)) "improving moves" [ 1 ] (Pure.improving_moves g [| 0; 0 |] 1)

let test_pure_initial_traffic () =
  let g = game_fixture () in
  (* Heavy initial traffic on link 0 pushes user0 off it. *)
  let initial = [| qi 10; Rational.zero |] in
  Alcotest.(check bool) "former NE broken" false (Pure.is_nash g ~initial [| 0; 1 |]);
  let loads = Pure.loads g ~initial [| 0; 1 |] in
  Alcotest.check check_q "load includes initial" (qi 13) loads.(0);
  Alcotest.check_raises "negative initial"
    (Invalid_argument "Pure.validate: negative initial traffic") (fun () ->
      Pure.validate g ~initial:[| qi (-1); qi 0 |] [| 0; 1 |])

let test_pure_validate () =
  let g = game_fixture () in
  Alcotest.check_raises "length" (Invalid_argument "Pure.validate: profile length differs from user count")
    (fun () -> Pure.validate g [| 0 |]);
  Alcotest.check_raises "range" (Invalid_argument "Pure.validate: link out of range") (fun () ->
      Pure.validate g [| 0; 2 |])

let test_pure_social_costs () =
  let g = game_fixture () in
  let sigma = [| 0; 1 |] in
  Alcotest.check check_q "SC1 sums" (Rational.add (q 3 2) (q 4 3)) (Pure.social_cost1 g sigma);
  Alcotest.check check_q "SC2 maxes" (q 3 2) (Pure.social_cost2 g sigma)

(* ------------------------------------------------------------------ *)
(* Mixed profiles                                                      *)

let test_mixed_validation () =
  let g = game_fixture () in
  Alcotest.check_raises "row count" (Invalid_argument "Mixed.validate: one distribution per user required")
    (fun () -> Mixed.validate g [| [| Rational.one; Rational.zero |] |]);
  Alcotest.check_raises "not distribution"
    (Invalid_argument "Mixed.validate: rows must be probability distributions") (fun () ->
      Mixed.validate g [| [| q 1 2; q 1 3 |]; [| Rational.one; Rational.zero |] |])

let test_mixed_of_pure_consistency () =
  let g = game_fixture () in
  let sigma = [| 0; 1 |] in
  let p = Mixed.of_pure g sigma in
  Mixed.validate g p;
  (* Expected traffic equals the pure loads. *)
  Alcotest.check check_q "W^0" (qi 3) (Mixed.expected_traffic g p 0);
  Alcotest.check check_q "W^1" (qi 2) (Mixed.expected_traffic g p 1);
  (* Latency of each user on its own link equals the pure latency. *)
  Alcotest.check check_q "latency user0" (Pure.latency g sigma 0) (Mixed.latency_on_link g p 0 0);
  Alcotest.check check_q "latency user1" (Pure.latency g sigma 1) (Mixed.latency_on_link g p 1 1);
  (* A pure NE embeds as a mixed NE. *)
  Alcotest.(check bool) "NE preserved" true (Mixed.is_nash g p);
  Alcotest.(check bool) "non-NE preserved" false (Mixed.is_nash g (Mixed.of_pure g [| 0; 0 |]))

let test_mixed_support_and_fully_mixed () =
  let g = game_fixture () in
  let p = [| [| q 1 2; q 1 2 |]; [| Rational.one; Rational.zero |] |] in
  Alcotest.(check (list int)) "support user0" [ 0; 1 ] (Mixed.support p 0);
  Alcotest.(check (list int)) "support user1" [ 0 ] (Mixed.support p 1);
  Alcotest.(check bool) "not fully mixed" false (Mixed.is_fully_mixed p);
  Alcotest.(check bool) "uniform fully mixed" true (Mixed.is_fully_mixed (Mixed.uniform g))

let test_mixed_latency_formula () =
  let g = game_fixture () in
  let p = Mixed.uniform g in
  (* user0 on link0: ((1 - 1/2)·3 + W^0)/c with W^0 = 3/2 + 1 = 5/2:
     (3/2 + 5/2)/2 = 2. *)
  Alcotest.check check_q "W^0" (q 5 2) (Mixed.expected_traffic g p 0);
  Alcotest.check check_q "λ^0_0" (qi 2) (Mixed.latency_on_link g p 0 0)

(* ------------------------------------------------------------------ *)
(* Social optimum and bounds                                           *)

let test_social_optimum () =
  let g = game_fixture () in
  (* Profiles: ⟨0,0⟩ SC1 = 5/2 + 15/4 = 25/4;  ⟨0,1⟩ 3/2 + 4/3 = 17/6;
     ⟨1,0⟩ 3/1 + 2/(4/3) = 3 + 3/2 = 9/2;  ⟨1,1⟩ 5/1 + 5/(3/2) = 25/3. *)
  let v1, p1 = Social.opt1 g in
  Alcotest.check check_q "OPT1 value" (q 17 6) v1;
  Alcotest.(check (array int)) "OPT1 profile" [| 0; 1 |] p1;
  let v2, p2 = Social.opt2 g in
  Alcotest.check check_q "OPT2 value" (q 3 2) v2;
  Alcotest.(check (array int)) "OPT2 profile" [| 0; 1 |] p2

(* Three unit-weight users on two unit-capacity links, each present
   with probability 1/2: every user adds 1/2 to its link's load and pays
   a bias of 1/2 on its own latency.  At ⟨0,0,1⟩ the pair pays
   (1 + 1/2)/1 each and the single user (1/2 + 1/2)/1, so SC1 = 4 and
   SC2 = 3/2; ⟨0,0,0⟩ costs 6 and 2. *)
let test_participation_optimum () =
  let b = Belief.certain (State.make [| qi 1; qi 1 |]) in
  let g =
    Game.make_uncertain ~weights:(Array.make 3 Rational.one)
      ~uncertainty:(Array.make 3 (Uncertainty.participation ~presence:(q 1 2) b))
  in
  let v1, p1 = Social.opt1 g in
  Alcotest.check check_q "OPT1 value" (qi 4) v1;
  Alcotest.(check (array int)) "OPT1 profile" [| 0; 0; 1 |] p1;
  let v2, p2 = Social.opt2 g in
  Alcotest.check check_q "OPT2 value" (q 3 2) v2;
  Alcotest.(check (array int)) "OPT2 profile" [| 0; 0; 1 |] p2

let test_social_guard () =
  let g = Game.of_capacities ~weights:(Array.make 24 Rational.one) (Array.make 24 [| qi 1; qi 2 |]) in
  Alcotest.check_raises "budget"
    (Invalid_argument "Social.opt1: 2^24 pure profiles exceed the limit 10000000") (fun () ->
      ignore (Social.opt1 g))

let test_profile_count () =
  let g = game_fixture () in
  Alcotest.(check (option int)) "2^2" (Some 4) (Social.profile_count g)

let test_ratios_at_least_one_at_opt () =
  let g = game_fixture () in
  let _, p = Social.opt1 g in
  Alcotest.check check_q "ratio1 of OPT is 1" Rational.one (Social.ratio1 g (Mixed.of_pure g p))

let test_bounds_values () =
  (* Uniform-view game: caps user0 = 2, user1 = 5 on both links. *)
  let g = Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 2; qi 2 |]; [| qi 5; qi 5 |] |] in
  (* cmax/cmin · (m+n-1)/m = (5/2)·(3/2) = 15/4. *)
  Alcotest.check check_q "thm 4.13" (q 15 4) (Bounds.theorem_4_13 g);
  (* thm 4.14: cmax²/cmin · (m+n-1)/Σ_l min_i c^l_i = 25/2 · 3/4 = 75/8. *)
  Alcotest.check check_q "thm 4.14" (q 75 8) (Bounds.theorem_4_14 g);
  let nonuniform = game_fixture () in
  Alcotest.check_raises "4.13 requires hypothesis"
    (Invalid_argument "Bounds.theorem_4_13: game does not have uniform user beliefs") (fun () ->
      ignore (Bounds.theorem_4_13 nonuniform))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let game_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
        Experiments.Generators.game rng ~n ~m
          ~weights:(Experiments.Generators.Rational_weights 5)
          ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 }))
      (int_bound 1_000_000))

(* Games whose users mix the three backends: Bayesian beliefs,
   Bernoulli participation at presences 1/4..1 and strict intervals. *)
let uncertain_game_gen =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 5 and m = Prng.Rng.int_in rng 2 3 in
        let space = Experiments.Generators.state_space rng ~m ~states:2 ~cap_bound:5 in
        let belief () = Belief.make space (Prng.Rng.positive_simplex rng ~dim:2 ~grain:4) in
        let interval _ =
          let a = Prng.Rng.int_in rng 1 5 and b = Prng.Rng.int_in rng 1 5 in
          (qi (min a b), qi (max a b))
        in
        let uncertainty =
          Array.init n (fun _ ->
              match Prng.Rng.int rng 3 with
              | 0 -> Uncertainty.bayesian (belief ())
              | 1 ->
                Uncertainty.participation ~presence:(q (Prng.Rng.int_in rng 1 4) 4) (belief ())
              | _ -> Uncertainty.strict_of_intervals (Array.init m interval))
        in
        Game.make_uncertain
          ~weights:(Experiments.Generators.weights rng ~n (Experiments.Generators.Rational_weights 5))
          ~uncertainty)
      (int_bound 1_000_000))

(* The first minimum of [cost] in odometer order, by brute force. *)
let brute_force_optimum g cost =
  let best = ref None in
  Social.iter_profiles g (fun p ->
      let c = cost g p in
      match !best with
      | Some (b, _) when Rational.compare b c <= 0 -> ()
      | _ -> best := Some (c, Array.copy p));
  Option.get !best

(* A rational in [0, 1] with a small denominator. *)
let unit_rational rng =
  let den = 1 + Prng.Rng.int rng 6 in
  q (Prng.Rng.int rng (den + 1)) den

let model_properties =
  [
    prop "mixture re-associates with the matching weights"
      QCheck2.Gen.(int_bound 1_000_000)
      (fun seed ->
        (* (1-v)·[(1-u)·a + u·b] + v·c is also a right-nested mixture:
           the outer weight becomes v' = 1 - (1-u)(1-v) and the inner
           one w' = v/v'.  Exact rationals make the two association
           orders literally equal, not just close. *)
        let rng = Prng.Rng.create seed in
        let dist () = Prng.Rng.positive_simplex rng ~dim:2 ~grain:5 in
        let a = Belief.make space2 (dist ())
        and b = Belief.make space2 (dist ())
        and c = Belief.make space2 (dist ()) in
        let u = unit_rational rng and v = unit_rational rng in
        let left = Belief.mixture (Belief.mixture a b ~weight:u) c ~weight:v in
        let v' =
          Rational.sub Rational.one
            (Rational.mul (Rational.sub Rational.one u) (Rational.sub Rational.one v))
        in
        if Rational.is_zero v' then true
        else
          let w' = Rational.div v v' in
          Belief.equal left (Belief.mixture a (Belief.mixture b c ~weight:w') ~weight:v'));
    prop "from_counts normalises to (count + s)/(total + K·s)"
      QCheck2.Gen.(int_bound 1_000_000)
      (fun seed ->
        let rng = Prng.Rng.create seed in
        let states = State.space_size space2 in
        let counts = Array.init states (fun _ -> Prng.Rng.int rng 7) in
        let smoothing =
          if Array.for_all (fun c -> c = 0) counts then Rational.one else unit_rational rng
        in
        (* Regenerate when both the counts and the smoothing vanish —
           that input is rejected (and pinned as such below). *)
        if Array.for_all (fun c -> c = 0) counts && Rational.is_zero smoothing then true
        else
          let b = Belief.from_counts space2 counts ~smoothing in
          let total =
            Rational.add
              (Rational.of_int (Array.fold_left ( + ) 0 counts))
              (Rational.mul (Rational.of_int states) smoothing)
          in
          Rational.equal (Rational.sum_array (Belief.probs b)) Rational.one
          && List.for_all
               (fun k ->
                 Rational.equal (Belief.prob b k)
                   (Rational.div (Rational.add (Rational.of_int counts.(k)) smoothing) total))
               (List.init states Fun.id));
    prop "expected latency factors through effective capacity" game_gen (fun g ->
        let rng = Prng.Rng.create (Game.users g) in
        let sigma = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
        List.for_all
          (fun i ->
            Rational.equal (Pure.latency g sigma i) (Pure.expected_latency_via_states g sigma i))
          (List.init (Game.users g) Fun.id));
    prop "OPT1 is a lower bound for every profile's SC1" game_gen (fun g ->
        let opt, _ = Social.opt1 g in
        let ok = ref true in
        Social.iter_profiles g (fun p ->
            if Rational.compare (Pure.social_cost1 g p) opt < 0 then ok := false);
        !ok);
    prop "optima are the first brute-force minima across backends" uncertain_game_gen (fun g ->
        let same (v, p) (v', p') = Rational.equal v v' && Pure.equal p p' in
        same (Social.opt1 g) (brute_force_optimum g (fun g p -> Pure.social_cost1 g p))
        && same (Social.opt2 g) (brute_force_optimum g (fun g p -> Pure.social_cost2 g p)));
    prop "OPT2 <= OPT1 (max of positives <= their sum)" game_gen (fun g ->
        let o1, _ = Social.opt1 g and o2, _ = Social.opt2 g in
        Rational.compare o2 o1 <= 0);
    prop "mixed embedding preserves the Nash property" game_gen (fun g ->
        let nes = Algo.Enumerate.pure_nash g in
        List.for_all (fun ne -> Mixed.is_nash g (Mixed.of_pure g ne)) nes);
    prop "expected traffics sum to the total traffic" game_gen (fun g ->
        let rng = Prng.Rng.create 99 in
        let p =
          Array.init (Game.users g) (fun _ ->
              Prng.Rng.positive_simplex rng ~dim:(Game.links g) ~grain:(Game.links g + 3))
        in
        Rational.equal
          (Rational.sum_array (Mixed.expected_traffics g p))
          (Game.total_traffic g));
    prop "uniform mixed profile is valid" game_gen (fun g ->
        Mixed.validate g (Mixed.uniform g);
        true);
    prop "coordination ratios are at least 1 at every pure NE" game_gen (fun g ->
        List.for_all
          (fun ne ->
            let mx = Mixed.of_pure g ne in
            Rational.compare (Social.ratio1 g mx) Rational.one >= 0
            && Rational.compare (Social.ratio2 g mx) Rational.one >= 0)
          (Algo.Enumerate.pure_nash g));
    prop "best_response attains the minimal post-move latency" game_gen (fun g ->
        let rng = Prng.Rng.create 7 in
        let p = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
        List.for_all
          (fun i ->
            let _, best = Pure.best_response g p i in
            List.for_all
              (fun l -> Rational.compare best (Pure.latency_on_link g p i l) <= 0)
              (List.init (Game.links g) Fun.id))
          (List.init (Game.users g) Fun.id));
    prop "KP games have no better-response cycles (classical FIP control)"
      QCheck2.Gen.(int_bound 1_000_000)
      (fun seed ->
        (* With common capacities the sorted latency vector decreases
           lexicographically on every improvement move, so the belief
           model's cyclic witness is impossible here — a sanity anchor
           for the E6 search machinery. *)
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
        let g =
          Experiments.Generators.game rng ~n ~m
            ~weights:(Experiments.Generators.Integer_weights 5)
            ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 6 })
        in
        Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response = None);
  ]

let suite =
  [
    ("state validation", `Quick, test_state_validation);
    ("state accessors", `Quick, test_state_accessors);
    ("belief validation", `Quick, test_belief_validation);
    ("belief condition on impossible event", `Quick, test_belief_condition_impossible_event);
    ("effective capacity harmonic mean", `Quick, test_effective_capacity_harmonic);
    ("point belief capacity", `Quick, test_point_belief_capacity);
    ("uniform link view predicate", `Quick, test_uniform_link_view_predicate);
    ("game validation", `Quick, test_game_validation);
    ("game accessors", `Quick, test_game_accessors);
    ("game predicates", `Quick, test_game_predicates);
    ("constructor messages", `Quick, check_messages constructor_errors);
    ("constructor fault order", `Quick, check_messages constructor_fault_order);
    ("reduced form agrees", `Quick, test_of_capacities_matches_beliefs);
    ("pure latency hand computed", `Quick, test_pure_latency_hand);
    ("pure latency on link", `Quick, test_pure_latency_on_link);
    ("pure nash hand computed", `Quick, test_pure_nash_hand);
    ("pure best response", `Quick, test_pure_best_response);
    ("pure initial traffic", `Quick, test_pure_initial_traffic);
    ("pure validate", `Quick, test_pure_validate);
    ("pure social costs", `Quick, test_pure_social_costs);
    ("mixed validation", `Quick, test_mixed_validation);
    ("mixed of_pure consistency", `Quick, test_mixed_of_pure_consistency);
    ("mixed support", `Quick, test_mixed_support_and_fully_mixed);
    ("mixed latency formula", `Quick, test_mixed_latency_formula);
    ("social optimum", `Quick, test_social_optimum);
    ("social optimum under participation", `Quick, test_participation_optimum);
    ("social guard", `Quick, test_social_guard);
    ("profile count", `Quick, test_profile_count);
    ("ratio at OPT", `Quick, test_ratios_at_least_one_at_opt);
    ("bound values", `Quick, test_bounds_values);
  ]

let () = Alcotest.run "model" [ ("unit", suite); ("properties", model_properties) ]
