(* Tests for the paper's algorithms: A_twolinks (Thm 3.3), A_symmetric
   (Thm 3.5), A_uniform (Thm 3.6), the fully mixed closed form
   (Lemmas 4.1–4.3, Theorems 4.6/4.8), best-response dynamics and the
   game-graph machinery behind the n = 3 result. *)

open Model
open Numeric

let q = Rational.of_ints
let qi = Rational.of_int
let check_q = Alcotest.testable Rational.pp Rational.equal

let prop name ?(count = 120) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

let random_game ?(belief = `Shared) seed ~n_lo ~n_hi ~m_lo ~m_hi =
  let rng = Prng.Rng.create seed in
  let n = Prng.Rng.int_in rng n_lo n_hi and m = Prng.Rng.int_in rng m_lo m_hi in
  let beliefs =
    match belief with
    | `Shared -> Experiments.Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 }
    | `Point -> Experiments.Generators.Private_point { cap_bound = 8 }
    | `Uniform -> Experiments.Generators.Uniform_link_view { cap_bound = 6 }
  in
  let weights =
    match belief with
    | `Uniform -> Experiments.Generators.Rational_weights 6
    | _ -> Experiments.Generators.Rational_weights 5
  in
  (rng, Experiments.Generators.game rng ~n ~m ~weights ~beliefs)

(* ------------------------------------------------------------------ *)
(* A_twolinks                                                          *)

let test_tolerance_definition () =
  (* Definition 3.1: the tolerance solves
     (t_j + α)/c^j_i = (t_{j⊕1} + T - α + w_i)/c^{j⊕1}_i. *)
  let g =
    Game.of_capacities ~weights:[| qi 3; qi 2 |]
      [| [| qi 2; qi 1 |]; [| q 4 3; q 3 2 |] |]
  in
  let initial = [| q 1 2; qi 1 |] in
  let total = Game.total_traffic g in
  List.iter
    (fun (i, j) ->
      let alpha = Algo.Two_links.tolerance g ~initial ~total i j in
      let lhs = Rational.div (Rational.add initial.(j) alpha) (Game.capacity g i j) in
      let rhs =
        Rational.div
          (Rational.add initial.(1 - j)
             (Rational.add (Rational.sub total alpha) (Game.weight g i)))
          (Game.capacity g i (1 - j))
      in
      Alcotest.check check_q (Printf.sprintf "identity i=%d j=%d" i j) lhs rhs)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_twolinks_hand_case () =
  let g =
    Game.of_capacities ~weights:[| qi 3; qi 2 |]
      [| [| qi 2; qi 1 |]; [| qi 1; qi 3 |] |]
  in
  let sigma = Algo.Two_links.solve g in
  Alcotest.(check bool) "returns a NE" true (Pure.is_nash g sigma);
  (* User 0 strongly prefers link 0 (capacity 2 vs 1), user 1 link 1. *)
  Alcotest.(check (array int)) "expected split" [| 0; 1 |] sigma

let test_twolinks_requires_two_links () =
  let g =
    Game.of_capacities ~weights:[| qi 1 |] [| [| qi 1; qi 1; qi 1 |] |]
  in
  Alcotest.check_raises "m=3 rejected"
    (Invalid_argument "Two_links.solve: game must have exactly two links") (fun () ->
      ignore (Algo.Two_links.solve g))

let test_twolinks_bad_initial () =
  let g = Game.of_capacities ~weights:[| qi 1 |] [| [| qi 1; qi 1 |] |] in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Two_links.solve: initial traffic must have length 2") (fun () ->
      ignore (Algo.Two_links.solve ~initial:[| qi 1 |] g))

let twolinks_properties =
  [
    prop "A_twolinks returns a pure NE (Thm 3.3)" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:8 ~m_lo:2 ~m_hi:2 in
        Pure.is_nash g (Algo.Two_links.solve g));
    prop "A_twolinks with initial traffic returns a pure NE" seed_gen (fun seed ->
        let rng, g = random_game seed ~n_lo:2 ~n_hi:7 ~m_lo:2 ~m_hi:2 in
        let initial =
          [| Prng.Rng.rational rng ~den_bound:4; Prng.Rng.rational rng ~den_bound:4 |]
        in
        Pure.is_nash g ~initial (Algo.Two_links.solve ~initial g));
    prop "A_twolinks on point beliefs returns a pure NE" seed_gen (fun seed ->
        let _, g = random_game ~belief:`Point seed ~n_lo:2 ~n_hi:8 ~m_lo:2 ~m_hi:2 in
        Pure.is_nash g (Algo.Two_links.solve g));
  ]

(* ------------------------------------------------------------------ *)
(* A_symmetric                                                         *)

let test_symmetric_hand_case () =
  (* Three unit users; user-specific capacities make them spread out. *)
  let g =
    Game.of_capacities ~weights:[| qi 1; qi 1; qi 1 |]
      [| [| qi 4; qi 1; qi 1 |]; [| qi 1; qi 4; qi 1 |]; [| qi 1; qi 1; qi 4 |] |]
  in
  let sigma = Algo.Symmetric.solve g in
  Alcotest.(check bool) "NE" true (Pure.is_nash g sigma);
  Alcotest.(check (array int)) "each user on its fast link" [| 0; 1; 2 |] sigma

let test_symmetric_rejects_weighted () =
  let g = Game.of_capacities ~weights:[| qi 1; qi 2 |] [| [| qi 1; qi 1 |]; [| qi 1; qi 1 |] |] in
  Alcotest.check_raises "weighted rejected"
    (Invalid_argument "Symmetric.solve: users must have equal weights") (fun () ->
      ignore (Algo.Symmetric.solve g))

let symmetric_properties =
  [
    prop "A_symmetric returns a pure NE (Thm 3.5)" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 5 in
        let g =
          Experiments.Generators.game rng ~n ~m ~weights:Experiments.Generators.Unit_weights
            ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 })
        in
        Pure.is_nash g (Algo.Symmetric.solve g));
    prop "A_symmetric move count stays within the O(n²) shape" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 5 in
        let g =
          Experiments.Generators.game rng ~n ~m ~weights:Experiments.Generators.Unit_weights
            ~beliefs:(Experiments.Generators.Private_point { cap_bound = 9 })
        in
        let _, moves = Algo.Symmetric.solve_with_stats g in
        (* The proof bounds defections by one per existing user per
           insertion: at most n(n-1)/2 in total. *)
        moves <= n * (n - 1) / 2);
  ]

(* ------------------------------------------------------------------ *)
(* A_uniform                                                           *)

let test_uniform_hand_case () =
  (* LPT on two equal-speed links: weights 5,4,3 → 5 | 4+3? No: LPT puts
     5 on link0, 4 on link1, 3 on link1? t=⟨5,4⟩ then 3 goes to link1
     (4 < 5): final loads ⟨5, 7⟩.  Actually 3 goes to the lighter link:
     loads ⟨5,4⟩ → link1; ⟨5,7⟩. *)
  let g =
    Game.of_capacities ~weights:[| qi 5; qi 4; qi 3 |]
      [| [| qi 1; qi 1 |]; [| qi 1; qi 1 |]; [| qi 1; qi 1 |] |]
  in
  let sigma = Algo.Uniform_beliefs.solve g in
  Alcotest.(check bool) "NE" true (Pure.is_nash g sigma);
  Alcotest.(check (array int)) "LPT placement" [| 0; 1; 1 |] sigma

let test_uniform_rejects_nonuniform () =
  let g = Game.of_capacities ~weights:[| qi 1 |] [| [| qi 1; qi 2 |] |] in
  Alcotest.check_raises "nonuniform rejected"
    (Invalid_argument "Uniform_beliefs.solve: game must have uniform user beliefs") (fun () ->
      ignore (Algo.Uniform_beliefs.solve g))

let uniform_properties =
  [
    prop "A_uniform returns a pure NE (Thm 3.6)" seed_gen (fun seed ->
        let _, g = random_game ~belief:`Uniform seed ~n_lo:2 ~n_hi:9 ~m_lo:2 ~m_hi:5 in
        Pure.is_nash g (Algo.Uniform_beliefs.solve g));
    prop "A_uniform with initial traffic returns a pure NE" seed_gen (fun seed ->
        let rng, g = random_game ~belief:`Uniform seed ~n_lo:2 ~n_hi:8 ~m_lo:2 ~m_hi:4 in
        let initial =
          Array.init (Game.links g) (fun _ -> Prng.Rng.rational rng ~den_bound:4)
        in
        Pure.is_nash g ~initial (Algo.Uniform_beliefs.solve ~initial g));
  ]

(* ------------------------------------------------------------------ *)
(* Fully mixed equilibria                                              *)

let fmne_game () =
  (* Two users, two links, mildly different beliefs: the fully mixed
     equilibrium exists (checked below). *)
  Game.of_capacities ~weights:[| qi 2; qi 3 |]
    [| [| qi 2; qi 2 |]; [| qi 2; qi 3 |] |]

let test_lemma_4_1_value () =
  let g = fmne_game () in
  (* user 0: S_0 = 4; λ_0 = ((m-1)w_0 + T)/S_0 = (2 + 5)/4 = 7/4. *)
  Alcotest.check check_q "λ_0" (q 7 4) (Algo.Fully_mixed.equilibrium_latency g 0);
  (* user 1: S_1 = 5; λ_1 = (3 + 5)/5 = 8/5. *)
  Alcotest.check check_q "λ_1" (q 8 5) (Algo.Fully_mixed.equilibrium_latency g 1)

let test_lemma_4_2_consistency () =
  let g = fmne_game () in
  (* The W^ℓ of Lemma 4.2 must equal the expected traffic of the
     candidate matrix. *)
  let p = Algo.Fully_mixed.candidate g in
  for l = 0 to Game.links g - 1 do
    Alcotest.check check_q
      (Printf.sprintf "W^%d" l)
      (Algo.Fully_mixed.expected_traffic g l)
      (Mixed.expected_traffic g p l)
  done

let test_candidate_rows_sum_one () =
  let g = fmne_game () in
  let p = Algo.Fully_mixed.candidate g in
  Array.iter (fun row -> Alcotest.check check_q "row sums to 1" Rational.one (Qvec.sum row)) p

let test_fmne_is_nash_and_unique_latency () =
  let g = fmne_game () in
  match Algo.Fully_mixed.compute g with
  | None -> Alcotest.fail "expected a fully mixed equilibrium"
  | Some p ->
    Alcotest.(check bool) "fully mixed" true (Mixed.is_fully_mixed p);
    Alcotest.(check bool) "is a Nash equilibrium" true (Mixed.is_nash g p);
    (* All links give the Lemma 4.1 latency to every user. *)
    for i = 0 to Game.users g - 1 do
      for l = 0 to Game.links g - 1 do
        Alcotest.check check_q "equalised latency"
          (Algo.Fully_mixed.equilibrium_latency g i)
          (Mixed.latency_on_link g p i l)
      done
    done

let test_fmne_nonexistence () =
  (* Extremely lopsided capacities: user 0 would need negative
     probability on the slow link. *)
  let g =
    Game.of_capacities ~weights:[| qi 1; qi 1 |]
      [| [| qi 100; qi 1 |]; [| qi 1; qi 100 |] |]
  in
  Alcotest.(check bool) "no fully mixed NE" false (Algo.Fully_mixed.exists g);
  (* The candidate is still defined and its rows still sum to one
     (Remark 4.4). *)
  let p = Algo.Fully_mixed.candidate g in
  Array.iter (fun row -> Alcotest.check check_q "row sums to 1" Rational.one (Qvec.sum row)) p

let test_fmne_requires_two_users () =
  let g = Game.of_capacities ~weights:[| qi 1 |] [| [| qi 1; qi 1 |] |] in
  Alcotest.check_raises "n=1 rejected"
    (Invalid_argument "Fully_mixed: at least two users required (the closed form divides by n-1)")
    (fun () -> ignore (Algo.Fully_mixed.candidate g))

let fmne_properties =
  [
    prop "candidate rows always sum to one (Remark 4.4)" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:6 ~m_lo:2 ~m_hi:4 in
        Array.for_all
          (fun row -> Rational.equal (Qvec.sum row) Rational.one)
          (Algo.Fully_mixed.candidate g));
    prop "candidate inside (0,1) is a fully mixed NE (Thm 4.6)" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:5 ~m_lo:2 ~m_hi:3 in
        match Algo.Fully_mixed.compute g with
        | None -> true
        | Some p -> Mixed.is_fully_mixed p && Mixed.is_nash g p);
    prop "Lemma 4.2 agrees with the candidate's expected traffic" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:5 ~m_lo:2 ~m_hi:4 in
        let p = Algo.Fully_mixed.candidate g in
        List.for_all
          (fun l ->
            Rational.equal (Algo.Fully_mixed.expected_traffic g l) (Mixed.expected_traffic g p l))
          (List.init (Game.links g) Fun.id));
    prop "uniform beliefs give the equiprobable FMNE (Thm 4.8)" seed_gen (fun seed ->
        let _, g = random_game ~belief:`Uniform seed ~n_lo:2 ~n_hi:6 ~m_lo:2 ~m_hi:4 in
        match Algo.Fully_mixed.compute g with
        | None -> false (* under uniform beliefs it must exist *)
        | Some p ->
          let share = Rational.of_ints 1 (Game.links g) in
          Array.for_all (Array.for_all (Rational.equal share)) p);
    prop "any fully mixed NE equals the candidate (uniqueness, Thm 4.6)" seed_gen (fun seed ->
        (* Sample fully mixed profiles; whenever one happens to be a NE
           it must be the closed-form candidate. *)
        let rng, g = random_game seed ~n_lo:2 ~n_hi:4 ~m_lo:2 ~m_hi:3 in
        let random_profile =
          Array.init (Game.users g) (fun _ ->
              Prng.Rng.positive_simplex rng ~dim:(Game.links g) ~grain:(Game.links g + 2))
        in
        (not (Mixed.is_nash g random_profile))
        || Mixed.equal random_profile (Algo.Fully_mixed.candidate g));
    prop "FMNE dominates every pure NE user-wise (Lemma 4.9)" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:4 ~m_lo:2 ~m_hi:3 in
        let comparator = Algo.Fully_mixed.candidate g in
        List.for_all
          (fun ne ->
            let mx = Mixed.of_pure g ne in
            List.for_all
              (fun i ->
                Rational.compare (Mixed.min_latency g mx i) (Mixed.min_latency g comparator i)
                <= 0)
              (List.init (Game.users g) Fun.id))
          (Algo.Enumerate.pure_nash g));
    prop "FMNE maximises SC1 and SC2 over pure NE (Thms 4.11/4.12)" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:4 ~m_lo:2 ~m_hi:3 in
        let comparator = Algo.Fully_mixed.candidate g in
        let sc1 = Mixed.social_cost1 g comparator and sc2 = Mixed.social_cost2 g comparator in
        List.for_all
          (fun ne ->
            let mx = Mixed.of_pure g ne in
            Rational.compare (Mixed.social_cost1 g mx) sc1 <= 0
            && Rational.compare (Mixed.social_cost2 g mx) sc2 <= 0)
          (Algo.Enumerate.pure_nash g));
  ]

(* ------------------------------------------------------------------ *)
(* Best-response dynamics and the game graph                           *)

let test_converge_small_game () =
  let g = fmne_game () in
  let outcome = Algo.Best_response.converge g ~max_steps:100 [| 0; 0 |] in
  Alcotest.(check bool) "converged" true outcome.converged;
  Alcotest.(check bool) "final is NE" true (Pure.is_nash g outcome.profile)

let test_step_on_equilibrium () =
  let g = fmne_game () in
  let outcome = Algo.Best_response.converge g ~max_steps:100 [| 0; 0 |] in
  Alcotest.(check bool) "step on NE returns None" true
    (Algo.Best_response.step g outcome.profile = None)

let dynamics_properties =
  [
    prop "best-response dynamics converge on small games" seed_gen (fun seed ->
        let rng, g = random_game seed ~n_lo:2 ~n_hi:4 ~m_lo:2 ~m_hi:3 in
        let start = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
        let o = Algo.Best_response.converge g ~max_steps:500 start in
        o.converged && Pure.is_nash g o.profile);
    prop "no best-response cycles with three users (Section 3.1)" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let m = Prng.Rng.int_in rng 2 3 in
        let g =
          Experiments.Generators.game rng ~n:3 ~m
            ~weights:(Experiments.Generators.Rational_weights 6)
            ~beliefs:(Experiments.Generators.Private_point { cap_bound = 9 })
        in
        Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Best_response = None);
    prop "three-user games always have a pure NE (Section 3.1)" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let m = Prng.Rng.int_in rng 2 4 in
        let g =
          Experiments.Generators.game rng ~n:3 ~m
            ~weights:(Experiments.Generators.Rational_weights 6)
            ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 7; grain = 3 })
        in
        Algo.Enumerate.exists g);
  ]

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

let test_enumerate_hand_case () =
  let g = fmne_game () in
  let nes = Algo.Enumerate.pure_nash g in
  Alcotest.(check bool) "all returned are NE" true (List.for_all (Pure.is_nash g) nes);
  Alcotest.(check int) "count agrees" (List.length nes) (Algo.Enumerate.count g);
  Alcotest.(check bool) "exists agrees" (nes <> []) (Algo.Enumerate.exists g)

let test_enumerate_extremal () =
  let g = fmne_game () in
  match Algo.Enumerate.extremal_nash g ~cost:(fun g p -> Pure.social_cost1 g p) with
  | None -> Alcotest.fail "expected equilibria"
  | Some ((_, best), (_, worst)) ->
    Alcotest.(check bool) "best <= worst" true (Rational.compare best worst <= 0)

let enumerate_properties =
  [
    prop "enumeration matches a direct filter" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:4 ~m_lo:2 ~m_hi:3 in
        let direct = ref [] in
        Social.iter_profiles g (fun p ->
            if Pure.is_nash g p then direct := Array.copy p :: !direct);
        List.map Array.to_list (List.rev !direct)
        = List.map Array.to_list (Algo.Enumerate.pure_nash g));
    prop "algorithmic equilibria appear in the enumeration" seed_gen (fun seed ->
        let _, g = random_game seed ~n_lo:2 ~n_hi:5 ~m_lo:2 ~m_hi:2 in
        let sigma = Array.to_list (Algo.Two_links.solve g) in
        List.exists (fun ne -> Array.to_list ne = sigma) (Algo.Enumerate.pure_nash g));
  ]

(* ------------------------------------------------------------------ *)
(* Degenerate sizes                                                    *)

let test_single_user_games () =
  (* The solvers accept n = 1 (useful for their recursions). *)
  let g2 = Game.of_capacities ~weights:[| qi 2 |] [| [| qi 1; qi 3 |] |] in
  let s = Algo.Two_links.solve g2 in
  Alcotest.(check bool) "single user picks the fast link" true (Pure.is_nash g2 s);
  Alcotest.(check (array int)) "fastest link chosen" [| 1 |] s;
  let g3 = Game.of_capacities ~weights:[| qi 1 |] [| [| qi 1; qi 2; qi 3 |] |] in
  Alcotest.(check bool) "symmetric solver handles n=1" true (Pure.is_nash g3 (Algo.Symmetric.solve g3));
  let gu = Game.of_capacities ~weights:[| qi 1 |] [| [| qi 2; qi 2 |] |] in
  Alcotest.(check bool) "uniform solver handles n=1" true (Pure.is_nash gu (Algo.Uniform_beliefs.solve gu))

let test_equal_capacity_ties () =
  (* All capacities and weights identical: every balanced split is a
     NE; the solvers must still return one. *)
  let g =
    Game.of_capacities ~weights:(Array.make 4 (qi 1))
      (Array.init 4 (fun _ -> [| qi 1; qi 1 |]))
  in
  Alcotest.(check bool) "two-links balanced" true (Pure.is_nash g (Algo.Two_links.solve g));
  Alcotest.(check bool) "symmetric balanced" true (Pure.is_nash g (Algo.Symmetric.solve g));
  Alcotest.(check bool) "uniform balanced" true (Pure.is_nash g (Algo.Uniform_beliefs.solve g));
  (* With 4 identical users on 2 identical links the 2-2 splits are the
     equilibria: C(4,2) = 6 of them. *)
  Alcotest.(check int) "six balanced equilibria" 6 (Algo.Enumerate.count g)

let test_extreme_capacity_ratio () =
  (* A 10^30-to-1 capacity ratio: exact arithmetic keeps the answer
     trivially right where floats would drown in rounding. *)
  let huge = Rational.of_bigint (Bigint.of_string "1000000000000000000000000000000") in
  let g =
    Game.of_capacities ~weights:[| qi 1; qi 1 |]
      [| [| huge; qi 1 |]; [| huge; qi 1 |] |]
  in
  let s = Algo.Two_links.solve g in
  Alcotest.(check (array int)) "both pile on the colossal link" [| 0; 0 |] s;
  Alcotest.(check bool) "and that is a NE" true (Pure.is_nash g s)

let suite =
  [
    ("single-user games", `Quick, test_single_user_games);
    ("equal-capacity ties", `Quick, test_equal_capacity_ties);
    ("extreme capacity ratios", `Quick, test_extreme_capacity_ratio);
    ("tolerance satisfies Definition 3.1", `Quick, test_tolerance_definition);
    ("A_twolinks hand case", `Quick, test_twolinks_hand_case);
    ("A_twolinks requires two links", `Quick, test_twolinks_requires_two_links);
    ("A_twolinks rejects bad initial traffic", `Quick, test_twolinks_bad_initial);
    ("A_symmetric hand case", `Quick, test_symmetric_hand_case);
    ("A_symmetric rejects weighted users", `Quick, test_symmetric_rejects_weighted);
    ("A_uniform hand case (LPT)", `Quick, test_uniform_hand_case);
    ("A_uniform rejects non-uniform beliefs", `Quick, test_uniform_rejects_nonuniform);
    ("Lemma 4.1 latency values", `Quick, test_lemma_4_1_value);
    ("Lemma 4.2 consistency", `Quick, test_lemma_4_2_consistency);
    ("candidate rows sum to one", `Quick, test_candidate_rows_sum_one);
    ("FMNE is a NE with equalised latencies", `Quick, test_fmne_is_nash_and_unique_latency);
    ("FMNE non-existence case", `Quick, test_fmne_nonexistence);
    ("FMNE requires two users", `Quick, test_fmne_requires_two_users);
    ("best-response convergence", `Quick, test_converge_small_game);
    ("step on equilibrium", `Quick, test_step_on_equilibrium);
    ("enumeration hand case", `Quick, test_enumerate_hand_case);
    ("extremal equilibria", `Quick, test_enumerate_extremal);
  ]

let () =
  Alcotest.run "algo"
    [
      ("unit", suite);
      ("two_links", twolinks_properties);
      ("symmetric", symmetric_properties);
      ("uniform", uniform_properties);
      ("fully_mixed", fmne_properties);
      ("dynamics", dynamics_properties);
      ("enumerate", enumerate_properties);
    ]
