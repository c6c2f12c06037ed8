(* Tests for the experiment task grid: cell order, trial threading and
   the per-task seed derivation of [Engine.sweep], and one pinned run
   of each of the seven drivers built on it. *)

open Experiments

(* --- the grid ----------------------------------------------------------- *)

let test_sweep_cell_rows () =
  match
    Engine.sweep ~seed:5 ~cells:[ 10; 20; 30 ] ~trials:4
      ~task:(fun cell _rng t -> (cell, t))
      ~reduce:(fun cell results -> (cell, Array.to_list results))
  with
  | [ (10, r0); (20, r1); (30, r2) ] ->
    List.iter2
      (fun cell results ->
        List.iteri
          (fun t (c, trial) ->
            Alcotest.(check int) "cell threaded" cell c;
            Alcotest.(check int) "trial order" t trial)
          results)
      [ 10; 20; 30 ] [ r0; r1; r2 ]
  | _ -> Alcotest.fail "expected three rows in cell order"

let test_sweep_rng_by_path () =
  (* Trial [t] of the cell at index [c] draws from
     [Rng.of_path seed [c; t]], whatever ran before it. *)
  let rows =
    Engine.sweep ~seed:7 ~cells:[ "a"; "b" ] ~trials:3
      ~task:(fun _ rng _ -> Prng.Rng.bits64 rng)
      ~reduce:(fun _ draws -> draws)
  in
  List.iteri
    (fun c draws ->
      Array.iteri
        (fun t d ->
          Alcotest.(check int64)
            (Printf.sprintf "cell %d trial %d is of_path seed [%d; %d]" c t c t)
            (Prng.Rng.bits64 (Prng.Rng.of_path 7 [ c; t ]))
            d)
        draws)
    rows;
  Alcotest.(check (list (array int64))) "no trials, one empty row per cell" [ [||]; [||] ]
    (Engine.sweep ~seed:7 ~cells:[ "a"; "b" ] ~trials:0
       ~task:(fun _ rng _ -> Prng.Rng.bits64 rng)
       ~reduce:(fun _ draws -> draws))

(* --- golden rows ---------------------------------------------------- *)

(* One line per row: floats as [%h] hex and rationals as strings, so an
   equality check is bit-exact and a failure prints the row. *)
let hex = Printf.sprintf "%h"
let q = Numeric.Rational.to_string

let cycles_rows () =
  List.map
    (fun (r : Cycles.row) ->
      Printf.sprintf "n=%d m=%d %s trials=%d br=%d better=%d witness=%s pure=%b" r.n r.m r.beliefs
        r.trials r.best_response_cycles r.better_response_cycles
        (match r.shortest_witness with None -> "-" | Some k -> string_of_int k)
        r.all_have_pure_ne)
    (Cycles.run ~seed:3 ~ns:[ 3 ] ~ms:[ 2 ] ~trials:6
       ~weights:(Generators.Integer_weights 4)
       ~beliefs:(Generators.Private_point { cap_bound = 6 })
       ())

let existence_rows () =
  List.map
    (fun (r : Existence.row) ->
      Printf.sprintf "n=%d m=%d %s %s trials=%d pure=%d ne=%d/%s/%d br=%d steps=%s" r.n r.m
        r.weights r.beliefs r.trials r.with_pure r.min_ne (hex r.mean_ne) r.max_ne r.br_converged
        (hex r.mean_br_steps))
    (Existence.run ~seed:11 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:6
       ~weights:(Generators.Integer_weights 4)
       ~beliefs:(Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
       ())

let robustness_rows () =
  List.map
    (fun (r : Robustness.row) ->
      Printf.sprintf "eps=%s trials=%d mean=%s max=%s failures=%d" (q r.epsilon) r.trials
        (hex r.mean_ratio) (hex r.max_ratio) r.equilibrium_failures)
    (Robustness.run ~seed:5 ~n:3 ~m:2 ~states:2
       ~epsilons:[ Numeric.Rational.zero; Numeric.Rational.of_ints 1 2 ]
       ~trials:6 ())

let monte_carlo_rows () =
  List.map
    (fun (r : Monte_carlo.row) ->
      Printf.sprintf "n=%d m=%d states=%d samples=%d max=%s mean=%s" r.n r.m r.states r.samples
        (hex r.max_rel_error) (hex r.mean_rel_error))
    (Monte_carlo.run ~seed:23 ~samples_list:[ 50; 100 ] ~trials:2 ())

let poa_exp_rows () =
  List.map
    (fun (r : Poa_exp.row) ->
      Printf.sprintf "n=%d m=%d %s trials=%d eq=%d ratio=%s/%s bound=%s slack=%s/%s violations=%d"
        r.n r.m r.beliefs r.trials r.equilibria (hex r.max_ratio1) (hex r.max_ratio2)
        (hex r.mean_bound1) (hex r.min_slack1) (hex r.min_slack2) r.violations)
    (Poa_exp.run ~seed:13 ~ns:[ 2; 3 ] ~ms:[ 2 ] ~trials:5
       ~weights:(Generators.Integer_weights 4)
       ~beliefs:(Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
       ~bound:`General ())

let learning_rows () =
  List.map
    (fun (r : Learning.row) ->
      Printf.sprintf "obs=%d trials=%d mean=%s max=%s error=%s" r.observations r.trials
        (hex r.mean_ratio) (hex r.max_ratio) (hex r.mean_belief_error))
    (Learning.run ~seed:3 ~n:3 ~m:2 ~states:2 ~observations:[ 0; 8 ] ~trials:5 ())

let ignorance_rows () =
  List.map
    (fun (r : Ignorance.row) ->
      Printf.sprintf
        "p=%s trials=%d informed=%s misinformed=%s robust=%s gain=%s congestion=%s failures=%d"
        (q r.presence) r.trials (hex r.informed_ratio) (hex r.misinformed_ratio)
        (hex r.robust_ratio) (hex r.demand_gain) (hex r.expected_congestion)
        r.equilibrium_failures)
    (Ignorance.run ~seed:2006 ~n:3 ~m:2 ~states:2
       ~presences:[ Numeric.Rational.one; Numeric.Rational.of_ints 1 2 ]
       ~trials:3 ())

(* The rows of the runs above.  The cycles row is all zeros: the
   belief model shows no response cycles at these sizes (E4/E6). *)
let cycles_golden =
  [
    "n=3 m=2 private-point trials=6 br=0 better=0 witness=- pure=true";
  ]

let existence_golden =
  [
    "n=2 m=2 int<=4 shared-space(2) trials=6 pure=6 ne=1/0x1.d555555555555p+0/2 br=6 steps=0x1.5555555555555p-1";
    "n=3 m=2 int<=4 shared-space(2) trials=6 pure=6 ne=1/0x1.1555555555555p+1/3 br=6 steps=0x1.aaaaaaaaaaaabp-1";
  ]

let robustness_golden =
  [
    "eps=0 trials=6 mean=0x1.01a8aa590ef1p+0 max=0x1.06d182ca12988p+0 failures=0";
    "eps=1/2 trials=6 mean=0x1p+0 max=0x1p+0 failures=0";
  ]

let monte_carlo_golden =
  [
    "n=4 m=3 states=4 samples=50 max=0x1.39ed5059b185p-3 mean=0x1.b25417d4382aap-5";
    "n=4 m=3 states=4 samples=100 max=0x1.7dd49c3411593p-4 mean=0x1.18da9d369e827p-5";
  ]

let poa_exp_golden =
  [
    "n=2 m=2 shared-space(2) trials=5 eq=13 ratio=0x1.b1c71c71c71c7p+0/0x1.7555555555555p+0 bound=0x1.400259a75d7eep+1 slack=0x1.8a0902de00d1bp-3/0x1p-2 violations=0";
    "n=3 m=2 shared-space(2) trials=5 eq=13 ratio=0x1.53231ac3d312p+0/0x1.435e50d79435ep+0 bound=0x1.b30506d2fff07p+2 slack=0x1.456212ed47af6p+1/0x1.4d4477e3671d7p+1 violations=0";
  ]

let learning_golden =
  [
    "obs=0 trials=5 mean=0x1p+0 max=0x1p+0 error=0x1.3f7ced916872bp-3";
    "obs=8 trials=5 mean=0x1.014e8a437311p+0 max=0x1.05bc384f40216p+0 error=0x1.5810624dd2f1ap-4";
  ]

let ignorance_golden =
  [
    "p=1 trials=3 informed=0x1.0b560a46a0562p+0 misinformed=0x1.1fc07f01fc07fp+0 robust=0x1.417d05f417d06p+0 gain=0x1p+0 congestion=0x1.8e38e38e38e39p+0 failures=0";
    "p=1/2 trials=3 informed=0x1.071c71c71c71cp+0 misinformed=0x1.0ff04e77a9af9p+0 robust=0x1.071c71c71c71cp+0 gain=0x1.076b981dae607p+0 congestion=0x1.31c71c71c71c7p+0 failures=0";
  ]

let golden name rows expected () =
  Alcotest.(check (list string)) (name ^ " rows") expected (rows ())

let suite =
  [
    ("sweep rows in cell order, trials threaded", `Quick, test_sweep_cell_rows);
    ("sweep rng is of_path seed [cell; trial]", `Quick, test_sweep_rng_by_path);
    ("cycles golden rows", `Slow, golden "cycles" cycles_rows cycles_golden);
    ("existence golden rows", `Slow, golden "existence" existence_rows existence_golden);
    ("robustness golden rows", `Slow, golden "robustness" robustness_rows robustness_golden);
    ("monte_carlo golden rows", `Slow, golden "monte_carlo" monte_carlo_rows monte_carlo_golden);
    ("poa_exp golden rows", `Slow, golden "poa_exp" poa_exp_rows poa_exp_golden);
    ("learning golden rows", `Slow, golden "learning" learning_rows learning_golden);
    ("ignorance golden rows", `Slow, golden "ignorance" ignorance_rows ignorance_golden);
  ]

let () = Alcotest.run "engine" [ ("unit", suite) ]
