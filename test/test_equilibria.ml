(* Tests for the equilibrium-structure extensions: support enumeration
   (all mixed Nash equilibria via exact linear systems) and the
   potential-function analysis of Section 3.2. *)

open Model
open Numeric

let qi = Rational.of_int
let check_q = Alcotest.testable Rational.pp Rational.equal

let prop name ?(count = 60) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

let random_game seed =
  let rng = Prng.Rng.create seed in
  let n = Prng.Rng.int_in rng 2 3 and m = Prng.Rng.int_in rng 2 3 in
  Experiments.Generators.game rng ~n ~m
    ~weights:(Experiments.Generators.Integer_weights 4)
    ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 })

(* ------------------------------------------------------------------ *)
(* Support enumeration                                                 *)

let fixture () =
  Game.of_capacities ~weights:[| qi 2; qi 3 |] [| [| qi 2; qi 2 |]; [| qi 2; qi 3 |] |]

let test_solve_support_pure () =
  let g = fixture () in
  (* Singleton supports {0},{1}: the pure profile ⟨0,1⟩. *)
  match Algo.Support_enum.solve_support g [| [ 0 ]; [ 1 ] |] with
  | None -> Alcotest.fail "expected the pure equilibrium"
  | Some f ->
    Alcotest.(check bool) "profile is pure ⟨0,1⟩" true
      (Mixed.equal f.profile (Mixed.of_pure g [| 0; 1 |]));
    Alcotest.check check_q "λ_0 is its latency" (Pure.latency g [| 0; 1 |] 0) f.latencies.(0)

let test_solve_support_full () =
  let g = fixture () in
  match Algo.Support_enum.solve_support g [| [ 0; 1 ]; [ 0; 1 ] |] with
  | None -> Alcotest.fail "expected the fully mixed equilibrium"
  | Some f ->
    (match Algo.Fully_mixed.compute g with
     | None -> Alcotest.fail "closed form should exist here"
     | Some fm ->
       Alcotest.(check bool) "agrees with the closed form" true (Mixed.equal f.profile fm);
       Alcotest.check check_q "λ agrees with Lemma 4.1"
         (Algo.Fully_mixed.equilibrium_latency g 0)
         f.latencies.(0))

let test_solve_support_rejects () =
  let g =
    (* User 0 vastly prefers link 0: no equilibrium puts it on link 1
       alone. *)
    Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 100; qi 1 |]; [| qi 1; qi 1 |] |]
  in
  Alcotest.(check bool) "unsupported support rejected" true
    (Algo.Support_enum.solve_support g [| [ 1 ]; [ 1 ] |] = None)

let test_solve_support_validation () =
  let g = fixture () in
  Alcotest.check_raises "empty support"
    (Invalid_argument "Support_enum.solve_support: empty support") (fun () ->
      ignore (Algo.Support_enum.solve_support g [| []; [ 0 ] |]));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Support_enum.solve_support: link out of range") (fun () ->
      ignore (Algo.Support_enum.solve_support g [| [ 5 ]; [ 0 ] |]))

let test_all_nash_limit () =
  (* Seven users on three links: 7^7 support profiles. *)
  let g = Game.of_capacities ~weights:(Array.make 7 (qi 1)) (Array.make 7 [| qi 1; qi 2; qi 3 |]) in
  Alcotest.check_raises "budget guard"
    (Invalid_argument "Support_enum.all_nash: 7^7 support profiles exceed the limit 200000")
    (fun () -> ignore (Algo.Support_enum.all_nash g))

let support_properties =
  [
    prop "singleton-support equilibria are exactly the pure NE" seed_gen (fun seed ->
        let g = random_game seed in
        let result = Algo.Support_enum.all_nash g in
        let singleton =
          List.filter_map
            (fun (f : Algo.Support_enum.finding) ->
              if Array.for_all (fun s -> List.length s = 1) f.supports then
                Some (Array.to_list (Array.map List.hd f.supports))
              else None)
            result.equilibria
          |> List.sort compare
        in
        let direct =
          Algo.Enumerate.pure_nash g |> List.map Array.to_list |> List.sort compare
        in
        singleton = direct);
    prop "full-support solution equals the Theorem 4.6 closed form" seed_gen (fun seed ->
        let g = random_game seed in
        let result = Algo.Support_enum.all_nash g in
        let full =
          List.filter
            (fun (f : Algo.Support_enum.finding) ->
              Array.for_all (fun s -> List.length s = Game.links g) f.supports)
            result.equilibria
        in
        match Algo.Fully_mixed.compute g, full with
        | Some fm, [ f ] -> Mixed.equal f.profile fm
        | None, [] -> true
        | Some _, [] | None, _ :: _ -> false
        | Some _, _ :: _ :: _ -> false);
    prop "every enumerated equilibrium passes the exact Nash predicate" seed_gen (fun seed ->
        let g = random_game seed in
        let result = Algo.Support_enum.all_nash g in
        List.for_all
          (fun (f : Algo.Support_enum.finding) ->
            Mixed.is_nash g f.profile
            && List.for_all
                 (fun i -> Rational.equal (Mixed.min_latency g f.profile i) f.latencies.(i))
                 (List.init (Game.users g) Fun.id))
          result.equilibria);
  ]

(* ------------------------------------------------------------------ *)
(* Potential functions                                                 *)

let test_square_defect_zero_for_kp_unweighted () =
  let g = Game.kp ~weights:[| qi 1; qi 1; qi 1 |] ~capacities:[| qi 2; qi 3 |] in
  (* Unweighted KP games are exact potential games (Rosenthal). *)
  Alcotest.(check bool) "exact potential" true (Algo.Potential.is_exact_potential_game g)

let test_square_defect_nonzero_for_beliefs () =
  let g =
    Game.of_capacities ~weights:[| qi 1; qi 2 |] [| [| qi 1; qi 3 |]; [| qi 2; qi 1 |] |]
  in
  match Algo.Potential.find_nonzero_square g with
  | None -> Alcotest.fail "expected a non-zero Monderer–Shapley square"
  | Some (sigma, i, j, li, lj) ->
    let defect = Algo.Potential.square_defect g sigma ~i ~j ~li ~lj in
    Alcotest.(check bool) "witness defect non-zero" true (not (Rational.is_zero defect))

let test_square_defect_same_user_rejected () =
  let g = fixture () in
  Alcotest.check_raises "i = j" (Invalid_argument "Potential.square_defect: users must differ")
    (fun () -> ignore (Algo.Potential.square_defect g [| 0; 0 |] ~i:1 ~j:1 ~li:1 ~lj:1))

let test_rosenthal_guards () =
  let weighted = Game.kp ~weights:[| qi 1; qi 2 |] ~capacities:[| qi 1; qi 1 |] in
  Alcotest.check_raises "weighted rejected"
    (Invalid_argument "Potential.rosenthal: users must have equal weights") (fun () ->
      ignore (Algo.Potential.rosenthal weighted [| 0; 0 |]));
  let non_kp = Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 1; qi 2 |]; [| qi 2; qi 1 |] |] in
  Alcotest.check_raises "non-KP rejected"
    (Invalid_argument "Potential.rosenthal: game must be a KP instance") (fun () ->
      ignore (Algo.Potential.rosenthal non_kp [| 0; 0 |]))

let potential_properties =
  [
    prop "belief games with user-specific views fail the exact-potential condition"
      seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:3 ~m:3
            ~weights:(Experiments.Generators.Integer_weights 4)
            ~beliefs:(Experiments.Generators.Private_point { cap_bound = 6 })
        in
        (* Users with genuinely different capacity views (generic case):
           no exact potential — the Section 3.2 claim. *)
        Game.is_kp g || not (Algo.Potential.is_exact_potential_game g));
    prop "unweighted KP games satisfy the exact-potential condition" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:3 ~m:3 ~weights:Experiments.Generators.Unit_weights
            ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 6 })
        in
        Algo.Potential.is_exact_potential_game g);
    prop "Rosenthal potential strictly decreases on improvement moves" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:4 ~m:3 ~weights:Experiments.Generators.Unit_weights
            ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 6 })
        in
        let p = Array.init 4 (fun _ -> Prng.Rng.int rng 3) in
        List.for_all
          (fun i ->
            List.for_all
              (fun l ->
                let p' = Array.copy p in
                p'.(i) <- l;
                Rational.compare (Algo.Potential.rosenthal g p') (Algo.Potential.rosenthal g p) < 0)
              (Pure.improving_moves g p i))
          (List.init 4 Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* The better-response-cycle witness (Section 3.2 / E6)                *)

let test_witness_has_better_response_cycle () =
  let g = Algo.Witness.better_response_cycle_game () in
  Alcotest.(check bool) "better-response cycle exists" true
    (Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response <> None);
  (* It is a counterexample to ordinal potentials only — pure equilibria
     survive, and best responses stay acyclic. *)
  Alcotest.(check bool) "still has a pure NE (Conjecture 3.7)" true (Algo.Enumerate.exists g);
  Alcotest.(check bool) "best-response graph acyclic" true
    (Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Best_response = None)

let test_witness_with_initial_traffic () =
  let g, initial = Algo.Witness.better_response_cycle_with_initial () in
  Alcotest.(check int) "three users suffice" 3 (Game.users g);
  Alcotest.(check bool) "cycle with initial traffic" true
    (Algo.Game_graph.find_cycle ~initial g ~kind:Algo.Game_graph.Better_response <> None);
  Alcotest.(check bool) "acyclic without initial traffic" true
    (Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response = None);
  (* A pure NE still exists even with the initial traffic. *)
  let found = ref false in
  Social.iter_profiles g (fun p -> if Pure.is_nash g ~initial p then found := true);
  Alcotest.(check bool) "pure NE with initial traffic" true !found

(* A witness cycle is real when each consecutive pair, and the last
   profile with the first, differ in one user's link and that move
   strictly lowers the user's latency (with the same initial traffic). *)
let check_improvement_cycle ?initial g cycle =
  let steps = List.combine cycle (List.tl cycle @ [ List.hd cycle ]) in
  Alcotest.(check bool) "at least two profiles" true (List.length cycle >= 2);
  List.iter
    (fun (p, q) ->
      let movers = List.filter (fun i -> p.(i) <> q.(i)) (List.init (Game.users g) Fun.id) in
      match movers with
      | [ i ] ->
        Alcotest.(check bool) "the mover strictly gains" true
          (Rational.compare (Pure.latency g ?initial q i) (Pure.latency g ?initial p i) < 0)
      | _ -> Alcotest.failf "a step moves %d users, not one" (List.length movers))
    steps

let test_witness_cycles_are_real () =
  let witness ?initial g =
    match Algo.Game_graph.find_cycle ?initial g ~kind:Algo.Game_graph.Better_response with
    | None -> Alcotest.fail "expected a better-response cycle"
    | Some cycle -> check_improvement_cycle ?initial g cycle
  in
  witness (Algo.Witness.better_response_cycle_game ());
  let g, initial = Algo.Witness.better_response_cycle_with_initial () in
  witness ~initial g

let test_original_witness () =
  let g = Algo.Witness.original_cycle_game () in
  Alcotest.(check bool) "original instance is cyclic too" true
    (Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response <> None);
  Alcotest.(check bool) "and not an exact potential game" true
    (Algo.Potential.find_nonzero_square g <> None)

let suite =
  [
    ("witness: better-response cycle (Monien/E6)", `Quick, test_witness_has_better_response_cycle);
    ("witness: 3 users + initial traffic", `Quick, test_witness_with_initial_traffic);
    ("witness: find_cycle returns real cycles", `Quick, test_witness_cycles_are_real);
    ("witness: original unminimised instance", `Slow, test_original_witness);
    ("solve support: pure", `Quick, test_solve_support_pure);
    ("solve support: full = closed form", `Quick, test_solve_support_full);
    ("solve support: rejection", `Quick, test_solve_support_rejects);
    ("solve support: validation", `Quick, test_solve_support_validation);
    ("all_nash limit guard", `Quick, test_all_nash_limit);
    ("exact potential holds for unweighted KP", `Quick, test_square_defect_zero_for_kp_unweighted);
    ("exact potential fails for belief games", `Quick, test_square_defect_nonzero_for_beliefs);
    ("square defect validation", `Quick, test_square_defect_same_user_rejected);
    ("rosenthal guards", `Quick, test_rosenthal_guards);
  ]

let () =
  Alcotest.run "equilibria"
    [ ("unit", suite); ("support_enum", support_properties); ("potential", potential_properties) ]
