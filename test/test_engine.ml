(* Tests for the sharded experiment engine: the determinism contract
   (bit-identical output for any domain count), task-order results and
   the per-task seed-derivation scheme.  Driver results are
   compared with [compare] rather than [=] because rows can contain NaN
   fields (e.g. mean over zero converged trials). *)

open Experiments

(* The engine determinism contract, checked end to end: [runs d] must
   produce bit-identical output for d ∈ {1, 2, 5}. *)
let check_domains name runs =
  let reference = runs 1 in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: domains=%d equals serial" name domains)
        true
        (compare reference (runs domains) = 0))
    [ 2; 5 ]

(* --- engine primitives ------------------------------------------------ *)

let test_map_tasks_order () =
  List.iter
    (fun domains ->
      let out = Engine.map_tasks ~domains ~seed:1 ~tasks:23 (fun _rng i -> 3 * i) in
      Alcotest.(check (array int)) (Printf.sprintf "domains=%d" domains)
        (Array.init 23 (fun i -> 3 * i))
        out)
    [ 1; 2; 5 ]

let test_map_tasks_rng_by_index () =
  (* The stream a task sees depends only on (seed, offset+index),
     never on the domain count. *)
  let draws ~domains ~offset =
    Engine.map_tasks ~domains ~seed:7 ~offset ~tasks:6 (fun rng _ -> Prng.Rng.bits64 rng)
  in
  Alcotest.(check bool) "domain count does not change streams" true
    (draws ~domains:1 ~offset:0 = draws ~domains:4 ~offset:0);
  Alcotest.(check bool) "offset shifts the stream table" true
    (Array.sub (draws ~domains:1 ~offset:0) 2 4 = Array.sub (draws ~domains:1 ~offset:2) 0 4);
  (* Matches the documented derivation exactly. *)
  let direct = Array.init 6 (fun i -> Prng.Rng.bits64 (Prng.Rng.of_path 7 [ 0; i ])) in
  Alcotest.(check bool) "rng is of_path seed [0; offset+i]" true
    (direct = draws ~domains:1 ~offset:0)

let test_sweep_cell_rows () =
  let run domains =
    Engine.sweep ~domains ~seed:5 ~cells:[ 10; 20; 30 ] ~trials:4
      ~task:(fun cell rng t -> (cell, t, Prng.Rng.bits64 rng))
      ~reduce:(fun cell results -> (cell, Array.to_list results))
  in
  (match run 1 with
   | [ (10, r0); (20, _); (30, _) ] ->
     List.iteri
       (fun t (cell, trial, _) ->
         Alcotest.(check int) "cell threaded" 10 cell;
         Alcotest.(check int) "trial order" t trial)
       r0
   | _ -> Alcotest.fail "expected three rows in cell order");
  check_domains "sweep" run

let test_engine_domains_override () =
  (* ENGINE_DOMAINS overrides valid positive values and ignores junk.
     [Unix.putenv] mutates this process's environment — restore it. *)
  let original = Sys.getenv_opt "ENGINE_DOMAINS" in
  let with_env value f =
    Unix.putenv "ENGINE_DOMAINS" value;
    Fun.protect
      ~finally:(fun () -> Unix.putenv "ENGINE_DOMAINS" (Option.value original ~default:""))
      f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "override wins" 3 (Engine.effective_domains 1));
  with_env "0" (fun () ->
      Alcotest.(check int) "non-positive ignored" 4 (Engine.effective_domains 4));
  with_env "junk" (fun () ->
      Alcotest.(check int) "junk ignored" 4 (Engine.effective_domains 4));
  with_env "" (fun () ->
      Alcotest.(check int) "empty ignored" 4 (Engine.effective_domains 4))

(* --- every refactored driver, bit-identical across domain counts ------ *)

let test_cycles_deterministic () =
  check_domains "cycles" (fun domains ->
      Cycles.run ~domains ~seed:3 ~ns:[ 3 ] ~ms:[ 2 ] ~trials:6
        ~weights:(Generators.Integer_weights 4)
        ~beliefs:(Generators.Private_point { cap_bound = 6 })
        ())

let test_existence_deterministic () =
  check_domains "existence" (fun domains ->
      Existence.run ~domains ~seed:11 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:6
        ~weights:(Generators.Integer_weights 4)
        ~beliefs:(Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
        ())

let test_robustness_deterministic () =
  let epsilons = [ Numeric.Rational.zero; Numeric.Rational.of_ints 1 2 ] in
  check_domains "robustness" (fun domains ->
      Robustness.run ~domains ~seed:5 ~n:3 ~m:2 ~states:2 ~epsilons ~trials:6 ())

let test_monte_carlo_deterministic () =
  check_domains "monte_carlo" (fun domains ->
      Monte_carlo.run ~domains ~seed:23 ~samples_list:[ 50; 100 ] ~trials:2 ())

let test_poa_exp_deterministic () =
  check_domains "poa_exp" (fun domains ->
      Poa_exp.run ~domains ~seed:13 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:5
        ~weights:(Generators.Integer_weights 4)
        ~beliefs:(Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
        ~bound:`General ())

let test_learning_deterministic () =
  check_domains "learning" (fun domains ->
      Learning.run ~domains ~seed:3 ~n:3 ~m:2 ~states:2 ~observations:[ 0; 8 ] ~trials:5 ())

let suite =
  [
    ("map_tasks keeps task order", `Quick, test_map_tasks_order);
    ("map_tasks rng depends only on index", `Quick, test_map_tasks_rng_by_index);
    ("sweep rows in cell order, trials threaded", `Quick, test_sweep_cell_rows);
    ("ENGINE_DOMAINS override", `Quick, test_engine_domains_override);
    ("cycles bit-identical across domains", `Slow, test_cycles_deterministic);
    ("existence bit-identical across domains", `Slow, test_existence_deterministic);
    ("robustness bit-identical across domains", `Slow, test_robustness_deterministic);
    ("monte_carlo bit-identical across domains", `Slow, test_monte_carlo_deterministic);
    ("poa_exp bit-identical across domains", `Slow, test_poa_exp_deterministic);
    ("learning bit-identical across domains", `Slow, test_learning_deterministic);
  ]

let () = Alcotest.run "engine" [ ("unit", suite) ]
