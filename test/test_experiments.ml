(* Tests for the experiment harness: generator validity, sweep
   reproducibility, and the semantic guarantees each experiment row
   relies on. *)

open Model
open Numeric

let prop name ?(count = 80) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let all_families =
  [
    Experiments.Generators.Shared_point { cap_bound = 5 };
    Experiments.Generators.Private_point { cap_bound = 5 };
    Experiments.Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 };
    Experiments.Generators.Uniform_link_view { cap_bound = 5 };
    Experiments.Generators.Signal_posterior { states = 3; cap_bound = 5; grain = 4 };
  ]

let generator_properties =
  [
    prop "generated games are well formed for every family" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        List.for_all
          (fun beliefs ->
            let n = Prng.Rng.int_in rng 2 5 and m = Prng.Rng.int_in rng 2 4 in
            let g =
              Experiments.Generators.game rng ~n ~m
                ~weights:(Experiments.Generators.Rational_weights 5)
                ~beliefs
            in
            Game.users g = n && Game.links g = m
            && Array.for_all (fun w -> Rational.sign w > 0) (Game.weights g)
            && List.for_all
                 (fun i ->
                   Array.for_all (fun c -> Rational.sign c > 0) (Game.capacity_row g i))
                 (List.init n Fun.id))
          all_families);
    prop "shared-point games are KP instances" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:4 ~m:3
            ~weights:(Experiments.Generators.Integer_weights 5)
            ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 5 })
        in
        Game.is_kp g);
    prop "uniform-view games satisfy the uniform-beliefs predicate" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:4 ~m:3
            ~weights:(Experiments.Generators.Integer_weights 5)
            ~beliefs:(Experiments.Generators.Uniform_link_view { cap_bound = 5 })
        in
        Game.has_uniform_beliefs g);
    prop "unit weights give symmetric games" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Experiments.Generators.game rng ~n:5 ~m:3 ~weights:Experiments.Generators.Unit_weights
            ~beliefs:(Experiments.Generators.Private_point { cap_bound = 5 })
        in
        Game.is_symmetric g);
    prop "integer weights respect the bound" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let w = Experiments.Generators.weights rng ~n:8 (Experiments.Generators.Integer_weights 5) in
        Array.for_all
          (fun x ->
            Rational.is_integer x && Rational.sign x > 0
            && Rational.compare x (Rational.of_int 5) <= 0)
          w);
  ]

let test_family_names () =
  Alcotest.(check string) "unit" "unit"
    (Experiments.Generators.weight_family_name Experiments.Generators.Unit_weights);
  Alcotest.(check string) "shared point" "shared-point(KP)"
    (Experiments.Generators.belief_family_name
       (Experiments.Generators.Shared_point { cap_bound = 3 }))

(* ------------------------------------------------------------------ *)
(* Existence sweep (E5)                                                *)

let small_existence () =
  Experiments.Existence.run ~seed:11 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:10
    ~weights:(Experiments.Generators.Integer_weights 4)
    ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
    ()

let test_existence_shape () =
  let rows = small_existence () in
  Alcotest.(check int) "one row per (n,m)" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.Existence.row) ->
      Alcotest.(check int) "trials recorded" 10 r.trials;
      Alcotest.(check bool) "pure NE always found (Conjecture 3.7)" true (r.with_pure = r.trials);
      Alcotest.(check bool) "min <= max" true (r.min_ne <= r.max_ne);
      Alcotest.(check bool) "all BR runs converged" true (r.br_converged = r.trials))
    rows

let test_existence_reproducible () =
  let a = small_existence () and b = small_existence () in
  Alcotest.(check bool) "same seed, same rows" true (a = b)

let test_existence_table_renders () =
  let t = Experiments.Existence.table (small_existence ()) in
  Alcotest.(check bool) "non-empty render" true (String.length (Stats.Table.render t) > 0)

(* ------------------------------------------------------------------ *)
(* Cycle search (E4/E6)                                                *)

let test_cycles_three_users () =
  let rows =
    Experiments.Cycles.run ~seed:3 ~ns:[ 3 ] ~ms:[ 2; 3 ] ~trials:10
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 6 })
      ()
  in
  List.iter
    (fun (r : Experiments.Cycles.row) ->
      Alcotest.(check int) "no best-response cycles for n=3" 0 r.best_response_cycles;
      Alcotest.(check bool) "every instance has a pure NE" true r.all_have_pure_ne)
    rows

(* ------------------------------------------------------------------ *)
(* FMNE experiment (E8–E10)                                            *)

let test_fmne_experiment_invariants () =
  let rows =
    Experiments.Fmne_exp.run ~seed:7 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:15
      ~weights:(Experiments.Generators.Integer_weights 3)
      ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
  in
  List.iter
    (fun (r : Experiments.Fmne_exp.row) ->
      Alcotest.(check int) "rows always sum to one" r.trials r.candidate_rows_sum_one;
      Alcotest.(check int) "every existing FMNE is a NE" r.fmne_exists r.fmne_is_nash;
      Alcotest.(check int) "latencies match Lemma 4.1" r.fmne_exists r.latencies_match_lemma41;
      Alcotest.(check int) "every pure NE dominated" r.pure_ne_checked r.dominated_by_fmne;
      Alcotest.(check int) "SC maximality" r.pure_ne_checked r.sc_maximal)
    rows

let test_fmne_uniform_equiprobable () =
  let rows =
    Experiments.Fmne_exp.run ~seed:9 ~ns:[ 3 ] ~ms:[ 2; 3 ] ~trials:10
      ~weights:(Experiments.Generators.Integer_weights 3)
      ~beliefs:(Experiments.Generators.Uniform_link_view { cap_bound = 4 })
  in
  List.iter
    (fun (r : Experiments.Fmne_exp.row) ->
      Alcotest.(check int) "FMNE always exists under uniform beliefs" r.trials r.fmne_exists;
      Alcotest.(check int) "and is equiprobable (Thm 4.8)" r.fmne_exists r.equiprobable)
    rows

(* ------------------------------------------------------------------ *)
(* Price of anarchy (E11/E12)                                          *)

let test_poa_bounds_hold () =
  let uniform_rows =
    Experiments.Poa_exp.run ~seed:13 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:10
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Uniform_link_view { cap_bound = 4 })
      ~bound:`Uniform ()
  in
  List.iter
    (fun (r : Experiments.Poa_exp.row) ->
      Alcotest.(check int) "no bound violations (Thm 4.13)" 0 r.violations;
      Alcotest.(check bool) "examined some equilibria" true (r.equilibria > 0))
    uniform_rows;
  let general_rows =
    Experiments.Poa_exp.run ~seed:13 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:10
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
      ~bound:`General ()
  in
  List.iter
    (fun (r : Experiments.Poa_exp.row) ->
      Alcotest.(check int) "no bound violations (Thm 4.14)" 0 r.violations)
    general_rows

(* ------------------------------------------------------------------ *)
(* Scaling (E1–E3)                                                     *)

let test_scaling_rows () =
  (* One row per size, in order, for the one algorithm asked for;
     A_twolinks needs m = 2. *)
  List.iter
    (fun (algorithm, name, sizes) ->
      let rows = Experiments.Scaling.run ~seed:17 algorithm ~sizes in
      Alcotest.(check (list (pair int int)))
        (name ^ " sizes") sizes
        (List.map (fun (r : Experiments.Scaling.row) -> (r.n, r.m)) rows);
      List.iter
        (fun (r : Experiments.Scaling.row) ->
          Alcotest.(check string) "algorithm" name r.algorithm;
          Alcotest.(check bool) "positive time" true (r.microseconds > 0.0);
          Alcotest.(check bool) "ran at least once" true (r.repetitions >= 1))
        rows)
    Experiments.Scaling.
      [
        (Two_links, "A_twolinks (Thm 3.3)", [ (4, 2) ]);
        (Symmetric, "A_symmetric (Thm 3.5)", [ (4, 2); (4, 3) ]);
        (Uniform, "A_uniform (Thm 3.6)", [ (4, 2); (4, 3) ]);
        (Fully_mixed, "FMNE closed form (Cor 4.7)", [ (4, 2); (4, 3) ]);
      ]

let test_time_call_measures () =
  let us, reps = Experiments.Scaling.time_call (fun () -> ignore (Sys.opaque_identity 1)) in
  Alcotest.(check bool) "microseconds positive" true (us >= 0.0);
  Alcotest.(check bool) "reps positive" true (reps >= 1)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo validation                                              *)

let test_monte_carlo_converges () =
  let rows = Experiments.Monte_carlo.run ~seed:23 ~samples_list:[ 200; 20_000 ] ~trials:3 () in
  match rows with
  | [ coarse; fine ] ->
    Alcotest.(check bool) "error shrinks with samples" true
      (fine.mean_rel_error < coarse.mean_rel_error);
    Alcotest.(check bool) "fine estimate within 5%" true (fine.max_rel_error < 0.05)
  | _ -> Alcotest.fail "expected two rows"

let test_monte_carlo_point_belief_exact () =
  (* A point belief has a single state, so sampling is exact. *)
  let rng = Prng.Rng.create 29 in
  let g =
    Experiments.Generators.game rng ~n:3 ~m:2
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 5 })
  in
  let sigma = [| 0; 1; 0 |] in
  let estimate = Experiments.Monte_carlo.estimate_latency g sigma ~user:0 ~samples:10 rng in
  let exact = Numeric.Rational.to_float (Pure.latency g sigma 0) in
  Alcotest.(check (float 1e-9)) "exact for point beliefs" exact estimate

let test_monte_carlo_validation () =
  let rng = Prng.Rng.create 31 in
  let g =
    Experiments.Generators.game rng ~n:2 ~m:2
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Private_point { cap_bound = 5 })
  in
  Alcotest.check_raises "samples positive"
    (Invalid_argument "Monte_carlo.estimate_latency: samples must be positive") (fun () ->
      ignore (Experiments.Monte_carlo.estimate_latency g [| 0; 0 |] ~user:0 ~samples:0 rng))

(* ------------------------------------------------------------------ *)
(* Robustness (price of misinformation, E17)                           *)

let test_robustness_rows () =
  let epsilons = [ Rational.zero; Rational.one ] in
  let rows = Experiments.Robustness.run ~seed:3 ~n:3 ~m:2 ~states:2 ~epsilons ~trials:8 () in
  Alcotest.(check int) "one row per epsilon" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.Robustness.row) ->
      Alcotest.(check int) "dynamics always converged" 0 r.equilibrium_failures;
      Alcotest.(check bool) "ratio at least 1" true (r.mean_ratio >= 1.0 -. 1e-9);
      Alcotest.(check bool) "max >= mean" true (r.max_ratio >= r.mean_ratio -. 1e-9))
    rows

let test_robustness_zero_contamination_is_kp () =
  (* At ε = 0 all users share the truth, so the game must be KP and the
     realised cost equals the in-game cost: ratio = SC1/OPT1 >= 1. *)
  let rows =
    Experiments.Robustness.run ~noise:`Point ~seed:5 ~n:3 ~m:2 ~states:2
      ~epsilons:[ Rational.zero ] ~trials:8 ()
  in
  List.iter
    (fun (r : Experiments.Robustness.row) ->
      Alcotest.(check bool) "PoA-like ratio" true (r.mean_ratio >= 1.0 -. 1e-9))
    rows

(* ------------------------------------------------------------------ *)
(* Curves (figure-style series)                                        *)

let test_curves_deterministic () =
  let a = Experiments.Curves.fmne_existence ~seed:3 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:5 in
  let b = Experiments.Curves.fmne_existence ~seed:3 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:5 in
  Alcotest.(check bool) "same seed, same series" true (a = b);
  List.iter
    (fun (p : Experiments.Curves.point) ->
      Alcotest.(check bool) "probability in [0,1]" true (p.value >= 0.0 && p.value <= 1.0))
    a

let test_curves_ne_counts_positive () =
  List.iter
    (fun (p : Experiments.Curves.point) ->
      Alcotest.(check bool) "mean #NE >= 1 (Conjecture 3.7)" true (p.value >= 1.0))
    (Experiments.Curves.mean_pure_ne ~seed:5 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:5)

let test_lpt_quality_bound () =
  List.iter
    (fun (m, worst, bound) ->
      Alcotest.(check bool) (Printf.sprintf "m=%d within Graham bound" m) true (worst <= bound +. 1e-9))
    (Experiments.Curves.lpt_quality ~seed:7 ~ms:[ 2; 3 ] ~trials:50)

let test_histograms_fill () =
  let h = Experiments.Curves.poa_histogram ~seed:9 ~trials:20 ~bins:8 in
  Alcotest.(check bool) "collected some equilibria" true (Stats.Histogram.count h > 0);
  let h = Experiments.Curves.br_steps_histogram ~seed:9 ~trials:20 ~bins:8 in
  Alcotest.(check bool) "collected some runs" true (Stats.Histogram.count h > 0)

(* ------------------------------------------------------------------ *)
(* Report helpers                                                      *)

let test_report_pct () =
  Alcotest.(check string) "full" "100.0%" (Experiments.Report.pct 10 10);
  Alcotest.(check string) "half" "50.0%" (Experiments.Report.pct 5 10);
  Alcotest.(check string) "empty denominator" "n/a" (Experiments.Report.pct 0 0)

let suite =
  [
    ("family names", `Quick, test_family_names);
    ("existence sweep shape", `Slow, test_existence_shape);
    ("existence reproducible", `Slow, test_existence_reproducible);
    ("existence table renders", `Slow, test_existence_table_renders);
    ("cycles: three users clean", `Slow, test_cycles_three_users);
    ("fmne experiment invariants", `Slow, test_fmne_experiment_invariants);
    ("fmne uniform equiprobable", `Slow, test_fmne_uniform_equiprobable);
    ("poa bounds hold", `Slow, test_poa_bounds_hold);
    ("scaling rows", `Slow, test_scaling_rows);
    ("time_call measures", `Quick, test_time_call_measures);
    ("report pct", `Quick, test_report_pct);
    ("monte carlo converges", `Slow, test_monte_carlo_converges);
    ("monte carlo point belief exact", `Quick, test_monte_carlo_point_belief_exact);
    ("monte carlo validation", `Quick, test_monte_carlo_validation);
    ("robustness rows", `Slow, test_robustness_rows);
    ("robustness zero contamination", `Slow, test_robustness_zero_contamination_is_kp);
    ("curves deterministic", `Slow, test_curves_deterministic);
    ("curves ne counts", `Slow, test_curves_ne_counts_positive);
    ("lpt within Graham bound", `Slow, test_lpt_quality_bound);
    ("histograms fill", `Slow, test_histograms_fill);
  ]

let () = Alcotest.run "experiments" [ ("unit", suite); ("generators", generator_properties) ]
