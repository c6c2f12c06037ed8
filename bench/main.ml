(* Benchmark & reproduction harness.

   Running this executable regenerates every experiment row of the
   reproduction (E1–E20 in DESIGN.md): the paper has no numbered tables
   or figures (theory venue), so each measurable claim — each algorithm
   theorem, the n = 3 result, Conjecture 3.7's simulations, the fully
   mixed equilibrium theorems and the price-of-anarchy bounds — gets a
   table here; the scaling tables of E1–E3 and E8 time the
   polynomial-time algorithms.  Each E-section and figure records its
   verdict as integer counts (section [repro]); six artefact sections
   (numeric, walk, mixed, class, ignorance, serve) record their
   measurements.  All are rows of one file, BENCH.json.  This program
   decides no verdict: bench/validate.py gates the rows and diffs every
   exact value against bench/golden/.

   QUICK=1 dune exec bench/main.exe  — reduced trial counts. *)

open Model
open Numeric
open Experiments

let quick = Sys.getenv_opt "QUICK" <> None
let trials base = if quick then max 5 (base / 10) else base

(* Every section hands long-form rows {section, workload, metric,
   value} to [emit]; [write_artefact] writes them all to BENCH.json in
   the current directory (schema bench-main/1, see README.md) once
   every section has run. *)
type value = Num of float | Int of int | Bool of bool | Str of string

let artefact = ref []

let emit section workload metrics =
  List.iter (fun (metric, v) -> artefact := (section, workload, metric, v) :: !artefact) metrics

(* A section's verdict, as integer counts: instances, successes per
   claimed property, violations and witness facts. *)
let repro workload counts = emit "repro" workload (List.map (fun (k, n) -> (k, Int n)) counts)

let sum f rows = List.fold_left (fun acc r -> acc + f r) 0 rows

(* [sums rows fields]: each named integer field summed over an experiment's rows. *)
let sums rows fields = List.map (fun (name, f) -> (name, sum f rows)) fields

(* The loop behind every sampled claim: [count] instances drawn in
   order from one stream, [Prng.Rng.create seed].  [trial rng hit note]
   inspects one: [hit name] counts a property it has, [note name x]
   adds [x] to a float summary that only the printed table shows.
   [print get summary] prints the table from the counts and summaries.
   Returns the counts, [instances] first, then [names] in order. *)
let tally ?(instances = "instances") ~seed ~count names trial print =
  let rng = Prng.Rng.create seed in
  let hits = List.map (fun name -> (name, ref 0)) names and notes = ref [] in
  let summary name = Option.value (List.assoc_opt name !notes) ~default:Stats.Welford.empty in
  let note name x =
    notes := (name, Stats.Welford.add (summary name) x) :: List.remove_assoc name !notes
  in
  for _ = 1 to count do
    trial rng (fun name -> incr (List.assoc name hits)) note
  done;
  let counts = (instances, count) :: List.map (fun (name, n) -> (name, !n)) hits in
  print (fun name -> List.assoc name counts) summary;
  counts

let one_row headers cells =
  let t = Stats.Table.create headers in
  Stats.Table.add_row t cells;
  Stats.Table.print t

(* Time [algorithm] at each size, print the table and, given [fit],
   the exponent of t = C·n^b fitted over its rows, making the O(n^k)
   claims directly comparable to measurements. *)
let scaling ?fit ~seed algorithm sizes =
  let rows = Scaling.run ~seed algorithm ~sizes in
  Stats.Table.print (Scaling.table rows);
  Option.iter
    (fun label ->
      let points = List.map (fun (r : Scaling.row) -> (float_of_int r.n, r.microseconds)) rows in
      let fit = Stats.Regression.log_log points in
      Printf.printf "fitted %s ~ n^%.2f (R² = %.3f)\n" label fit.slope fit.r_squared)
    fit

let shared_space cap_bound = Generators.Shared_space { states = 3; cap_bound; grain = 4 }

(* ------------------------------------------------------------------ *)
(* The reproduction: E1–E20 and the figures F1–F6                      *)

(* E1–E3: the paper's polynomial-time algorithms. *)
let correctness_table ~name ~solve ~make_game ~with_initial ~seed ~count =
  tally ~seed ~count ("pure_ne" :: (if with_initial then [ "pure_ne_initial" ] else []))
    (fun rng hit _ ->
      let g = make_game rng in
      let sigma = solve ?initial:None g in
      if Pure.is_nash g sigma then hit "pure_ne";
      if with_initial then begin
        let initial = Array.init (Game.links g) (fun _ -> Prng.Rng.rational rng ~den_bound:4) in
        let sigma = solve ?initial:(Some initial) g in
        if Pure.is_nash g ~initial sigma then hit "pure_ne_initial"
      end)
    (fun get _ ->
      one_row [ "algorithm"; "instances"; "pure NE"; "pure NE (initial traffic)" ]
        [
          name; string_of_int count; Report.pct (get "pure_ne") count;
          (if with_initial then Report.pct (get "pure_ne_initial") count else "n/a");
        ])

let e1 () =
  Report.heading "E1" "Algorithm A_twolinks computes a pure NE in O(n^2) (Theorem 3.3)";
  repro "E1"
    (correctness_table ~name:"A_twolinks" ~seed:101 ~count:(trials 300) ~with_initial:true
       ~solve:(fun ?initial g -> Algo.Two_links.solve ?initial g)
       ~make_game:(fun rng ->
         let n = Prng.Rng.int_in rng 2 10 in
         Generators.game rng ~n ~m:2 ~weights:(Generators.Rational_weights 6)
           ~beliefs:(shared_space 6)));
  scaling ~seed:102 Scaling.Two_links (List.map (fun n -> (n, 2)) [ 4; 8; 16; 32; 64 ])
    ~fit:"A_twolinks time (theorem: n^2 of exact ops)"

let e2 () =
  Report.heading "E2" "Algorithm A_symmetric computes a pure NE in O(n^2 m) (Theorem 3.5)";
  let correct =
    correctness_table ~name:"A_symmetric" ~seed:103 ~count:(trials 300) ~with_initial:false
      ~solve:(fun ?initial:_ g -> Algo.Symmetric.solve g)
      ~make_game:(fun rng ->
        let n = Prng.Rng.int_in rng 2 10 and m = Prng.Rng.int_in rng 2 5 in
        Generators.game rng ~n ~m ~weights:Generators.Unit_weights
          ~beliefs:(Generators.Private_point { cap_bound = 8 }))
  in
  (* The proof bounds total defection moves by n(n-1)/2. *)
  let defections =
    tally ~instances:"defection_runs" ~seed:104 ~count:(trials 300) [ "defections_over_bound" ]
      (fun rng hit note ->
        let n = Prng.Rng.int_in rng 3 12 and m = Prng.Rng.int_in rng 2 5 in
        let g =
          Generators.game rng ~n ~m ~weights:Generators.Unit_weights
            ~beliefs:(Generators.Private_point { cap_bound = 8 })
        in
        let _, moves = Algo.Symmetric.solve_with_stats g in
        let bound = n * (n - 1) / 2 in
        if moves > bound then hit "defections_over_bound";
        note "ratio" (float_of_int moves /. float_of_int bound))
      (fun _ summary ->
        Printf.printf "worst observed defections / (n(n-1)/2) = %.3f (theorem requires <= 1)\n"
          (Stats.Welford.max (summary "ratio")))
  in
  repro "E2" (correct @ defections);
  scaling ~seed:105 Scaling.Symmetric [ (8, 4); (16, 4); (32, 4); (64, 4) ]
    ~fit:"A_symmetric time (theorem: n^2·m)"

let e3 () =
  Report.heading "E3" "Algorithm A_uniform computes a pure NE in O(n(log n + m)) (Theorem 3.6)";
  repro "E3"
    (correctness_table ~name:"A_uniform" ~seed:106 ~count:(trials 300) ~with_initial:true
       ~solve:(fun ?initial g -> Algo.Uniform_beliefs.solve ?initial g)
       ~make_game:(fun rng ->
         let n = Prng.Rng.int_in rng 2 12 and m = Prng.Rng.int_in rng 2 5 in
         Generators.game rng ~n ~m ~weights:(Generators.Rational_weights 6)
           ~beliefs:(Generators.Uniform_link_view { cap_bound = 6 })));
  scaling ~seed:107 Scaling.Uniform [ (16, 4); (64, 4); (256, 4) ]
    ~fit:"A_uniform time (theorem: n·(log n + m))"

(* E4/E6: a [Cycles] sweep's counts; a cell is one (n, m) pair. *)
let cycles ~seed ~ns ~ms ~weights ~beliefs =
  let rows = Cycles.run ~seed ~ns ~ms ~trials:(trials 200) ~weights ~beliefs () in
  Stats.Table.print (Cycles.table rows);
  sums rows
    [ ("instances", fun (r : Cycles.row) -> r.trials); ("cells", fun _ -> 1);
      ("best_response_cycles", fun r -> r.best_response_cycles);
      ("better_response_cycles", fun r -> r.better_response_cycles);
      ("cells_all_pure_ne", fun r -> Bool.to_int r.all_have_pure_ne) ]

(* E4: three users — no best-response cycles, pure NE always. *)
let e4 () =
  Report.heading "E4" "n = 3: no best-response cycles; a pure NE always exists (Section 3.1)";
  repro "E4"
    (cycles ~seed:108 ~ns:[ 3 ] ~ms:[ 2; 3; 4 ] ~weights:(Generators.Rational_weights 6)
       ~beliefs:(Generators.Private_point { cap_bound = 9 }))

(* E5: Conjecture 3.7 — the paper's existence simulations. *)
let e5 () =
  Report.heading "E5"
    "Pure NE existence on random instances (Conjecture 3.7; reproduces the paper's simulations)";
  let rows =
    List.concat_map
      (fun (weights, beliefs) ->
        let rows =
          Existence.run ~seed:109 ~ns:[ 2; 3; 4; 5 ] ~ms:[ 2; 3 ] ~trials:(trials 100) ~weights
            ~beliefs ()
        in
        Stats.Table.print (Existence.table rows);
        rows)
      [
        (Generators.Rational_weights 5, Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 });
        (Generators.Integer_weights 5, Generators.Private_point { cap_bound = 8 });
        (Generators.Integer_weights 5, Generators.Signal_posterior { states = 4; cap_bound = 6; grain = 5 });
      ]
  in
  repro "E5"
    (sums rows [ ("instances", fun (r : Existence.row) -> r.trials);
                 ("with_pure_ne", fun r -> r.with_pure); ("br_converged", fun r -> r.br_converged) ])

(* E6: better-response cycles (ordinal potential, Section 3.2). *)
let e6 () =
  Report.heading "E6"
    "Better-response cycles: belief model vs. general player-specific games (Section 3.2)";
  let random =
    cycles ~seed:110 ~ns:[ 3; 4 ] ~ms:[ 2; 3 ] ~weights:(Generators.Integer_weights 6)
      ~beliefs:(Generators.Private_point { cap_bound = 12 })
  in
  (* Contrast: in Milchtaich's general (non-linear) unweighted class,
     better-response cycles are common. *)
  let contrast =
    tally ~instances:"contrast_instances" ~seed:111 ~count:(trials 2000) [ "contrast_cycles" ]
      (fun rng hit _ ->
        let t = Kp.Milchtaich.Unweighted.random rng ~players:3 ~links:3 ~value_bound:6 in
        if Kp.Milchtaich.Weighted.has_better_response_cycle t then hit "contrast_cycles")
      (fun get _ ->
        Printf.printf
          "contrast — general player-specific (3 players, 3 links, monotone tables): %s have a \
           better-response cycle\n"
          (Report.pct (get "contrast_cycles") (get "contrast_instances")))
  in
  (* The witness: a 6-user instance of the belief model whose
     better-response graph IS cyclic, found by bin/cycle_hunt.exe after
     ~68M smaller instances had none.  This reproduces the paper's
     Section 3.2 claim (B. Monien's unpublished observation). *)
  let witness = Algo.Witness.better_response_cycle_game () in
  let cycle kind = Algo.Game_graph.find_cycle witness ~kind <> None in
  let better_cycle = cycle Algo.Game_graph.Better_response in
  let pure_ne = Algo.Enumerate.count witness in
  let best_cycle = cycle Algo.Game_graph.Best_response in
  Printf.printf
    "witness (found by cycle_hunt, minimised to n=%d, m=%d): better-response cycle %b, \
     pure NE count %d, best-response cycle %b\n"
    (Game.users witness) (Game.links witness) better_cycle pure_ne best_cycle;
  print_endline
    "=> the belief model is NOT an ordinal potential game (Section 3.2), yet the witness\n\
     still has pure NE and an acyclic best-response graph. No cycle exists among ~68M\n\
     random instances with n <= 4 nor 1.5M exhaustive small grids; see EXPERIMENTS.md.";
  repro "E6"
    (random @ contrast
     @ [ ("witness_better_cycle", Bool.to_int better_cycle); ("witness_pure_ne", pure_ne);
         ("witness_best_cycle", Bool.to_int best_cycle) ])

(* E7: Milchtaich's non-existence vs the belief model.  Without a
   witness there is no [witness_pure_ne] row, which the gate reports. *)
let e7 () =
  Report.heading "E7"
    "Weighted player-specific games may lack a pure NE; belief games do not (Section 3)";
  let rng = Prng.Rng.create 5 in
  let witness =
    match
      Kp.Milchtaich.Weighted.search_no_pure_nash rng ~weights:[| 1; 2; 3 |] ~links:3 ~attempts:5000
    with
    | None ->
      print_endline "no-pure-NE witness: the adaptive search found none";
      [ ("witness_found", 0) ]
    | Some (t, steps) ->
      let pure_ne = List.length (Kp.Milchtaich.Weighted.pure_nash t) in
      Printf.printf
        "no-pure-NE witness: 3 players (weights 1,2,3), 3 links, found after %d adaptive steps; \
         exhaustive check: %d pure NE\n"
        steps pure_ne;
      [ ("witness_found", 1); ("witness_steps", steps); ("witness_pure_ne", pure_ne) ]
  in
  let belief =
    tally ~seed:112 ~count:(trials 500) [ "with_pure_ne" ]
      (fun rng hit _ ->
        let g =
          Generators.game rng ~n:3 ~m:3 ~weights:(Generators.Integer_weights 3)
            ~beliefs:(shared_space 6)
        in
        if Algo.Enumerate.exists g then hit "with_pure_ne")
      (fun get _ ->
        Printf.printf "belief-model games of the same shape with a pure NE: %s\n"
          (Report.pct (get "with_pure_ne") (get "instances")))
  in
  repro "E7" (witness @ belief)

(* E8–E10: fully mixed equilibria. *)
let e8_to_e10 () =
  Report.heading "E8–E10"
    "Fully mixed NE: closed form is a unique NE (Thm 4.6), equiprobable under uniform beliefs \
     (Thm 4.8), and maximises both social costs (Lemma 4.9, Thms 4.11/4.12)";
  let run label beliefs =
    print_endline label;
    let rows =
      Fmne_exp.run ~seed:113 ~ns:[ 2; 3; 4 ] ~ms:[ 2; 3 ] ~trials:(trials 100)
        ~weights:(Generators.Integer_weights 4) ~beliefs
    in
    Stats.Table.print (Fmne_exp.table rows);
    rows
  in
  let shared = run "shared-space beliefs:" (shared_space 5) in
  let uniform = run "uniform user beliefs (E9):" (Generators.Uniform_link_view { cap_bound = 5 }) in
  let trials (r : Fmne_exp.row) = r.trials and exists (r : Fmne_exp.row) = r.fmne_exists in
  repro "E8"
    (sums (shared @ uniform)
       [ ("instances", trials); ("rows_sum_one", fun r -> r.candidate_rows_sum_one);
         ("fmne_exists", exists); ("fmne_is_nash", fun r -> r.fmne_is_nash);
         ("lemma41_latencies", fun r -> r.latencies_match_lemma41) ]);
  repro "E9"
    (sums uniform
       [ ("instances", trials); ("fmne_exists", exists); ("equiprobable", fun r -> r.equiprobable) ]);
  repro "E10"
    (sums (shared @ uniform)
       [ ("pure_ne", fun (r : Fmne_exp.row) -> r.pure_ne_checked);
         ("dominated_by_fmne", fun r -> r.dominated_by_fmne); ("sc_maximal", fun r -> r.sc_maximal) ]);
  (* FMNE computation is O(nm) (Corollary 4.7): timing. *)
  scaling ~seed:114 Scaling.Fully_mixed [ (8, 4); (16, 8); (32, 8) ]

(* E11/E12: price of anarchy vs the theorem bounds. *)
let poa id ~seed ~ns ~beliefs ~bound =
  let rows =
    Poa_exp.run ~seed ~ns ~ms:[ 2; 3 ] ~trials:(trials 60) ~weights:(Generators.Integer_weights 4)
      ~beliefs ~bound ()
  in
  Stats.Table.print (Poa_exp.table rows);
  repro id
    (sums rows [ ("instances", fun (r : Poa_exp.row) -> r.trials);
                 ("equilibria", fun r -> r.equilibria); ("violations", fun r -> r.violations) ])

let e11 () =
  Report.heading "E11" "Empirical coordination ratio vs the Theorem 4.13 bound (uniform beliefs)";
  poa "E11" ~seed:115 ~ns:[ 2; 3; 4 ] ~beliefs:(Generators.Uniform_link_view { cap_bound = 4 })
    ~bound:`Uniform

let e12 () =
  Report.heading "E12" "Empirical coordination ratio vs the Theorem 4.14 bound (general case)";
  poa "E12" ~seed:116 ~ns:[ 2; 3; 4; 6 ] ~beliefs:(shared_space 5) ~bound:`General

(* E13: point beliefs subsume the KP-model. *)
let e13 () =
  Report.heading "E13" "Point beliefs coincide with the KP-model (Section 2)";
  let count = trials 300 in
  repro "E13"
    (tally ~seed:117 ~count [ "ne_sets_agree"; "lpt_nash" ]
       (fun rng hit _ ->
         let n = Prng.Rng.int_in rng 2 5 and m = Prng.Rng.int_in rng 2 3 in
         let g =
           Generators.game rng ~n ~m ~weights:(Generators.Rational_weights 5)
             ~beliefs:(Generators.Shared_point { cap_bound = 6 })
         in
         let direct = Game.kp ~weights:(Game.weights g) ~capacities:(Game.capacity_row g 0) in
         if
           List.map Array.to_list (Algo.Enumerate.pure_nash g)
           = List.map Array.to_list (Algo.Enumerate.pure_nash direct)
         then hit "ne_sets_agree";
         if Pure.is_nash g (Kp.Kp_nash.solve g) then hit "lpt_nash")
       (fun get _ ->
         one_row [ "instances"; "NE sets agree with direct KP"; "KP LPT solver returns NE" ]
           [ string_of_int count; Report.pct (get "ne_sets_agree") count; Report.pct (get "lpt_nash") count ]))

(* E14: not an exact potential game (Section 3.2). *)
let e14 () =
  Report.heading "E14" "The game admits no exact potential (Section 3.2 / technical report [9])";
  let count = trials 300 in
  repro "E14"
    (tally ~seed:119 ~count [ "belief_not_exact_potential"; "kp_exact_potential" ]
       (fun rng hit _ ->
         let g =
           Generators.game rng ~n:3 ~m:3 ~weights:(Generators.Integer_weights 4)
             ~beliefs:(Generators.Private_point { cap_bound = 6 })
         in
         if Game.is_kp g || not (Algo.Potential.is_exact_potential_game g) then
           hit "belief_not_exact_potential";
         let kp =
           Generators.game rng ~n:3 ~m:3 ~weights:Generators.Unit_weights
             ~beliefs:(Generators.Shared_point { cap_bound = 6 })
         in
         if Algo.Potential.is_exact_potential_game kp then hit "kp_exact_potential")
       (fun get _ ->
         one_row
           [ "instances"; "belief games failing exact-potential"; "unweighted KP satisfying it" ]
           [
             string_of_int count; Report.pct (get "belief_not_exact_potential") count;
             Report.pct (get "kp_exact_potential") count;
           ]));
  print_endline
    "ordinal potentials are ruled out too: see the E6 witness (a 6-user instance with a\n\
     better-response cycle, Algo.Witness.better_response_cycle_game)."

(* E15: support enumeration cross-validates the Section 4 formulas. *)
let e15 () =
  Report.heading "E15"
    "All mixed equilibria by support enumeration; the full-support one matches Theorem 4.6";
  let count = trials 150 in
  repro "E15"
    (tally ~seed:120 ~count [ "pure_sets_agree"; "fmne_exists"; "fmne_agrees" ]
       (fun rng hit note ->
         let n = Prng.Rng.int_in rng 2 3 and m = Prng.Rng.int_in rng 2 3 in
         let g =
           Generators.game rng ~n ~m ~weights:(Generators.Integer_weights 4)
             ~beliefs:(shared_space 5)
         in
         let result = Algo.Support_enum.all_nash g in
         note "equilibria" (float_of_int (List.length result.equilibria));
         let singleton =
           List.filter_map
             (fun (f : Algo.Support_enum.finding) ->
               if Array.for_all (fun s -> List.length s = 1) f.supports then
                 Some (Array.to_list (Array.map List.hd f.supports))
               else None)
             result.equilibria
           |> List.sort compare
         in
         if singleton = (Algo.Enumerate.pure_nash g |> List.map Array.to_list |> List.sort compare)
         then hit "pure_sets_agree";
         match Algo.Fully_mixed.compute g with
         | None -> ()
         | Some fm ->
           hit "fmne_exists";
           let full =
             List.filter
               (fun (f : Algo.Support_enum.finding) ->
                 Array.for_all (fun s -> List.length s = Game.links g) f.supports)
               result.equilibria
           in
           (match full with [ f ] when Mixed.equal f.profile fm -> hit "fmne_agrees" | _ -> ()))
       (fun get summary ->
         one_row [ "instances"; "mean NE count"; "pure sets agree"; "FMNE agrees with closed form" ]
           [
             string_of_int count; Report.flt (Stats.Welford.mean (summary "equilibria"));
             Report.pct (get "pure_sets_agree") count;
             Report.pct (get "fmne_agrees") (get "fmne_exists");
           ]))

(* E16: the complementary model of [8] and Monte-Carlo validation. *)
let e16 () =
  Report.heading "E16"
    "Baseline [8] (traffic uncertainty): pure Bayesian NE always exist; Monte-Carlo check of \
     the capacity reduction";
  let count = trials 200 in
  repro "E16"
    (tally ~seed:121 ~count [ "converged"; "budget_exhausted"; "pure_ne_exists" ]
       (fun rng hit _ ->
         let t = Kp.Bayesian.random rng ~n:3 ~m:2 ~max_types:2 ~bound:6 in
         (* [solve] fails only when its step budget runs out. *)
         (match Kp.Bayesian.solve t with
          | s -> if Kp.Bayesian.is_nash t s then hit "converged"
          | exception Failure _ -> hit "budget_exhausted");
         if Kp.Bayesian.exists_pure_nash t then hit "pure_ne_exists")
       (fun get _ ->
         one_row [ "instances"; "BR dynamics reach a Bayesian NE"; "pure Bayesian NE exists" ]
           [ string_of_int count; Report.pct (get "converged") count; Report.pct (get "pure_ne_exists") count ]));
  Stats.Table.print
    (Monte_carlo.table
       (Monte_carlo.run ~seed:122 ~samples_list:[ 100; 1_000; 10_000 ] ~trials:(trials 10) ()))

(* E17: the price of misinformation. *)
let e17 () =
  Report.heading "E17"
    "The price of misinformation: equilibria under contaminated beliefs, priced under the truth";
  let epsilons =
    List.map (fun (a, b) -> Rational.of_ints a b) [ (0, 1); (1, 4); (1, 2); (3, 4); (1, 1) ]
  in
  let run ?noise label seed =
    print_endline label;
    let rows = Robustness.run ?noise ~seed ~n:4 ~m:3 ~states:3 ~epsilons ~trials:(trials 150) () in
    Stats.Table.print (Robustness.table rows);
    rows
  in
  let diffuse = run "diffuse noise (random distributions):" 135 in
  let point = run ~noise:`Point "confidently wrong (point-mass noise):" 136 in
  repro "E17"
    (sums (diffuse @ point) [ ("instances", fun (r : Robustness.row) -> r.trials);
                              ("equilibrium_failures", fun r -> r.equilibrium_failures) ])

(* E18/E19: learning — measurement value and fictitious play. *)
let e18 () =
  Report.heading "E18"
    "The value of measurement: beliefs estimated from k state observations, priced under truth";
  let rows =
    Learning.run ~seed:137 ~n:4 ~m:3 ~states:3 ~observations:[ 0; 2; 8; 32; 128 ]
      ~trials:(trials 120) ()
  in
  Stats.Table.print (Learning.table rows);
  repro "E18"
    (sums rows [ ("instances", fun (r : Learning.row) -> r.trials);
                 ("equilibrium_failures", fun r -> r.equilibrium_failures) ])

let e19 () =
  Report.heading "E19"
    "Fictitious play: the game is not a potential game, yet play stabilises at pure NE";
  let count = trials 300 in
  repro "E19"
    (tally ~seed:138 ~count [ "stabilised"; "stabilised_nash" ]
       (fun rng hit note ->
         let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
         let g =
           Generators.game rng ~n ~m ~weights:(Generators.Integer_weights 4)
             ~beliefs:(shared_space 5)
         in
         let start = Array.init n (fun _ -> Prng.Rng.int rng m) in
         let o = Algo.Fictitious.play g ~rounds:5000 ~window:10 start in
         if o.stabilised then begin
           hit "stabilised";
           (* [stabilised] claims a pure NE; the exact predicate re-checks it. *)
           if Pure.is_nash g o.last_profile then hit "stabilised_nash";
           note "rounds" (float_of_int o.rounds)
         end)
       (fun get summary ->
         let rounds = summary "rounds" in
         one_row [ "instances"; "stabilised at a pure NE"; "mean rounds"; "max rounds" ]
           [
             string_of_int count; Report.pct (get "stabilised") count;
             Report.flt (Stats.Welford.mean rounds); Report.flt (Stats.Welford.max rounds);
           ]))

(* E20: the value of mediation (correlated equilibria). *)
let e20 () =
  Report.heading "E20" "Mediation value: optimal correlated equilibria vs Nash equilibria (exact LP)";
  let t =
    Stats.Table.create
      [
        "beliefs"; "instances"; "OPT <= bestCE <= bestNE"; "mean bestNE/bestCE";
        "max bestNE/bestCE"; "mediator strictly helps"; "mean worstCE/worstNE";
      ]
  in
  let count = trials 100 in
  let family beliefs =
    tally ~seed:139 ~count [ "sandwich"; "mediator_helps" ]
      (fun rng hit note ->
        let n = Prng.Rng.int_in rng 2 3 and m = Prng.Rng.int_in rng 2 3 in
        let g = Generators.game rng ~n ~m ~weights:(Generators.Integer_weights 4) ~beliefs in
        let best_ce = Algo.Correlated.best_social_cost g in
        let worst_ce = Algo.Correlated.worst_social_cost g in
        let opt1, _ = Social.opt1 g in
        match Algo.Enumerate.extremal_nash g ~cost:(fun g p -> Pure.social_cost1 g p) with
        | Some ((_, best_ne), (_, worst_ne)) ->
          if
            Rational.compare opt1 best_ce.value <= 0
            && Rational.compare best_ce.value best_ne <= 0
          then hit "sandwich";
          if Rational.compare best_ce.value best_ne < 0 then hit "mediator_helps";
          note "gain" (Rational.to_float (Rational.div best_ne (Rational.max best_ce.value opt1)));
          note "worst" (Rational.to_float (Rational.div worst_ce.value worst_ne))
        | None -> ())
      (fun get summary ->
        Stats.Table.add_row t
          [
            Generators.belief_family_name beliefs; string_of_int count;
            Report.pct (get "sandwich") count; Report.flt (Stats.Welford.mean (summary "gain"));
            Report.flt (Stats.Welford.max (summary "gain"));
            Report.pct (get "mediator_helps") count;
            Report.flt (Stats.Welford.mean (summary "worst"));
          ])
  in
  let shared = family (shared_space 5) in
  let uniform = family (Generators.Uniform_link_view { cap_bound = 5 }) in
  Stats.Table.print t;
  print_endline
    "bestNE/bestCE > 1 would mean a mediator strictly beats every pure Nash equilibrium;\n\
     worstCE/worstNE >= 1 always (Nash points lie inside the CE polytope).";
  repro "E20" (List.map2 (fun (k, a) (_, b) -> (k, a + b)) shared uniform)

(* Figure-style series. *)
let figures () =
  Report.heading "FIGURES" "Series the paper's empirical section implies";
  let t = trials 100 in
  (* An F1/F2 point is a mean over [t] trials; [total] sums it back. *)
  let total points =
    sum (fun (p : Curves.point) -> Float.to_int (Float.round (p.value *. float_of_int t))) points
  in
  print_endline "F1 — probability that the fully mixed NE exists (shared-space beliefs):";
  let points = Curves.fmne_existence ~seed:130 ~ns:[ 2; 3; 4; 5 ] ~ms:[ 2; 3; 4 ] ~trials:t in
  Stats.Table.print (Curves.table "P(FMNE exists)" points);
  repro "F1" [ ("instances", t * List.length points); ("fmne_exists", total points) ];
  print_endline "F2 — mean number of pure Nash equilibria per instance:";
  let points = Curves.mean_pure_ne ~seed:131 ~ns:[ 2; 3; 4; 5 ] ~ms:[ 2; 3 ] ~trials:t in
  Stats.Table.print (Curves.table "mean #pure NE" points);
  repro "F2" [ ("instances", t * List.length points); ("pure_ne", total points) ];
  print_endline "F3 — distribution of SC1/OPT1 over all pure NE of random instances:";
  let h = Curves.poa_histogram ~seed:132 ~trials:(trials 400) ~bins:10 in
  print_string (Stats.Histogram.render h);
  repro "F3" Stats.Histogram.[ ("instances", trials 400); ("pure_ne", count h); ("below_opt", underflow h) ];
  print_endline "F4 — distribution of best-response convergence lengths:";
  let h = Curves.br_steps_histogram ~seed:133 ~trials:(trials 600) ~bins:12 in
  print_string (Stats.Histogram.render h);
  repro "F4" [ ("instances", trials 600); ("converged", Stats.Histogram.count h) ];
  print_endline "F5 — Graham LPT quality on identical links (ties to reference [10]):";
  let over_bound (_, worst, bound) = Bool.to_int (worst > bound) in
  let lpt = Curves.lpt_quality ~seed:134 ~ms:[ 2; 3; 4 ] ~trials:(trials 300) in
  let table = Stats.Table.create [ "m"; "worst makespan ratio"; "4/3 - 1/(3m) bound" ] in
  List.iter
    (fun (m, worst, bound) ->
      Stats.Table.add_row table [ string_of_int m; Report.flt worst; Report.flt bound ])
    lpt;
  Stats.Table.print table;
  (* An m's worst instance is within the bound exactly when all its instances are. *)
  repro "F5"
    [ ("instances", trials 300 * List.length lpt); ("links_over_bound", sum over_bound lpt) ];
  print_endline
    "F6 — exact E[SC] of the equiprobable FMNE on identical unit links, normalised by n/m:";
  let points = Curves.fmne_emc ~ns:[ 4; 8; 16; 32 ] ~ms:[ 2; 3; 4 ] in
  Stats.Table.print (Curves.table "E[SC] / (n/m)" points);
  (* The expected maximum load is never below the mean load n/m. *)
  let below_split (p : Curves.point) = Bool.to_int (p.value < 1.0) in
  repro "F6" [ ("points", List.length points); ("below_split", sum below_split points) ]

(* ------------------------------------------------------------------ *)
(* The BENCH.json artefact                                             *)

let write_artefact () =
  (* The shortest decimal that reads back as the same float, with a
     point or an exponent so that a reader tells it from an [Int].  JSON
     has no infinities or NaN: those become null, which fails every gate. *)
  let num x =
    if not (Float.is_finite x) then "null"
    else
      let s = Printf.sprintf "%.15g" x in
      let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
      if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"
  in
  (* Names and [Str] values are plain ASCII, where OCaml's %S quoting
     coincides with JSON's. *)
  let json = function
    | Num x -> num x
    | Int i -> string_of_int i
    | Bool b -> string_of_bool b
    | Str s -> Printf.sprintf "%S" s
  in
  let oc = open_out "BENCH.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\"schema\": \"bench-main/1\", \"quick\": %b, \"rows\": [" quick;
      List.iteri
        (fun i (section, workload, metric, v) ->
          Printf.fprintf oc
            "%s\n  {\"section\": %S, \"workload\": %S, \"metric\": %S, \"value\": %s}"
            (if i = 0 then "" else ",") section workload metric (json v))
        (List.rev !artefact);
      output_string oc "\n]}\n";
      close_out oc);
  print_endline "wrote BENCH.json"

(* Milliseconds per call of [f], timed by [Scaling.time_call]. *)
let ms_of f =
  let us, _ = Scaling.time_call f in
  us /. 1000.0

(* ------------------------------------------------------------------ *)
(* Numeric-tower benchmark                                             *)

(* Times the live tagged tower against Reference (the seed
   array-only implementation) on identical operand pools, at small and
   multi-limb magnitudes, plus an end-to-end [Pure.is_nash] throughput
   figure. *)
let bench_numeric () =
  Report.heading "NUMERIC" "tagged fast path vs reference tower";
  let module R = Reference in
  let rng = Prng.Rng.create 0xBE7C in
  let bench_pairs pairs f =
    let k = Array.length pairs in
    let us, _ =
      Scaling.time_call (fun () ->
          for i = 0 to k - 1 do
            let a, b = pairs.(i) in
            ignore (Sys.opaque_identity (f a b))
          done)
    in
    us *. 1000.0 /. float_of_int k
  in
  let digits n =
    let b = Buffer.create n in
    Buffer.add_char b (Char.chr (Char.code '1' + Prng.Rng.int rng 9));
    for _ = 2 to n do
      Buffer.add_char b (Char.chr (Char.code '0' + Prng.Rng.int rng 10))
    done;
    Buffer.contents b
  in
  let q_pool count gen =
    Array.init count (fun _ ->
        let s1 = gen () and s2 = gen () in
        ((Rational.of_string s1, Rational.of_string s2), (R.Q.of_string s1, R.Q.of_string s2)))
  in
  let i_pool count gen =
    Array.init count (fun _ ->
        let s1 = gen () and s2 = gen () in
        ((Bigint.of_string s1, Bigint.of_string s2), (R.Int.of_string s1, R.Int.of_string s2)))
  in
  let small_q () =
    Printf.sprintf "%d/%d" (Prng.Rng.int_in rng (-999) 999) (1 + Prng.Rng.int rng 999)
  in
  let large_q () =
    Printf.sprintf "%s%s/%s" (if Prng.Rng.bool rng then "-" else "") (digits 25) (digits 25)
  in
  let small_i () = string_of_int (1 + Prng.Rng.int rng 1_000_000_000) in
  let large_i () = digits 40 in
  let results = ref [] in
  let record op magnitude fast_ns ref_ns =
    results := (op, magnitude, fast_ns, ref_ns) :: !results
  in
  let run_q op magnitude pool fast slow =
    record op magnitude
      (bench_pairs (Array.map fst pool) fast)
      (bench_pairs (Array.map snd pool) slow)
  in
  let sq = q_pool 256 small_q and lq = q_pool 64 large_q in
  run_q "rational_add" "small" sq Rational.add R.Q.add;
  run_q "rational_add" "large" lq Rational.add R.Q.add;
  run_q "rational_mul" "small" sq Rational.mul R.Q.mul;
  run_q "rational_mul" "large" lq Rational.mul R.Q.mul;
  run_q "rational_compare" "small" sq Rational.compare R.Q.compare;
  run_q "rational_compare" "large" lq Rational.compare R.Q.compare;
  let si = i_pool 256 small_i and li = i_pool 64 large_i in
  run_q "bigint_gcd" "small" si Bigint.gcd R.Int.gcd;
  run_q "bigint_gcd" "large" li Bigint.gcd R.Int.gcd;
  let results = List.rev !results in
  (* End-to-end: Nash verification over solved two-link games. *)
  let n_users = 16 and n_links = 2 in
  let games =
    List.init 20 (fun _ ->
        let g =
          Generators.game rng ~n:n_users ~m:n_links ~weights:(Generators.Integer_weights 6)
            ~beliefs:(Generators.Private_point { cap_bound = 8 })
        in
        (g, Algo.Two_links.solve g))
  in
  let nash_us, _ =
    Scaling.time_call (fun () ->
        List.iter (fun (g, sigma) -> ignore (Sys.opaque_identity (Pure.is_nash g sigma))) games)
  in
  let calls_per_sec = 1e6 /. (nash_us /. float_of_int (List.length games)) in
  (* Human-readable summary. *)
  let t = Stats.Table.create [ "op"; "magnitude"; "fast ns/op"; "reference ns/op"; "speedup" ] in
  List.iter
    (fun (op, mag, f, r) ->
      Stats.Table.add_row t
        [ op; mag; Report.flt f; Report.flt r; Printf.sprintf "%.2fx" (r /. f) ])
    results;
  Stats.Table.print t;
  Printf.printf "is_nash (n=%d, m=%d): %.0f calls/s\n" n_users n_links calls_per_sec;
  List.iter
    (fun (op, mag, f, r) ->
      emit "numeric" (op ^ "_" ^ mag)
        [ ("fast_ns_per_op", Num f); ("reference_ns_per_op", Num r); ("speedup", Num (r /. f)) ])
    results;
  emit "numeric" "is_nash"
    [
      ("games", Int (List.length games)); ("users", Int n_users); ("links", Int n_links);
      ("calls_per_sec", Num calls_per_sec);
    ]

(* ------------------------------------------------------------------ *)
(* Incremental-evaluation benchmark                                    *)

(* Old-vs-new evaluation core.  [Seed_eval] reimplements the seed's
   recompute-from-scratch semantics exactly as shipped before the
   incremental [Model.View] existed — every latency pays an O(n) load
   scan, every step re-lists the defectors and then re-derives the
   mover's best response — because [Pure] itself now delegates to
   views, so timing [Pure] would no longer measure the old core.  Three
   fixed workloads run through both cores and must agree exactly: a
   First_defector best-response walk, an OPT1 search (the seed's
   exhaustive scan against the live branch-and-bound [Social.opt1])
   and a Nash-verification batch. *)
module Seed_eval = struct
  let load_on g p l =
    let acc = ref Rational.zero in
    Array.iteri (fun k lk -> if lk = l then acc := Rational.add !acc (Game.weight g k)) p;
    !acc

  let latency g p i = Rational.div (load_on g p p.(i)) (Game.capacity g i p.(i))

  let latency_on_link g p i l =
    let base = load_on g p l in
    let load = if p.(i) = l then base else Rational.add base (Game.weight g i) in
    Rational.div load (Game.capacity g i l)

  let best_response g p i =
    let best_link = ref 0 and best = ref (latency_on_link g p i 0) in
    for l = 1 to Game.links g - 1 do
      let lat = latency_on_link g p i l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)

  let is_defector g p i =
    let current = latency g p i in
    let rec scan l =
      if l >= Game.links g then false
      else if l <> p.(i) && Rational.compare (latency_on_link g p i l) current < 0 then true
      else scan (l + 1)
    in
    scan 0

  let defectors g p = List.filter (is_defector g p) (List.init (Game.users g) Fun.id)
  let social_cost1 g p = Rational.sum (List.init (Game.users g) (fun i -> latency g p i))

  let step g p =
    match defectors g p with
    | [] -> None
    | mover :: _ ->
      let target, _ = best_response g p mover in
      let next = Array.copy p in
      next.(mover) <- target;
      Some next

  let converge g ~max_steps p =
    let rec go p steps =
      if steps >= max_steps then (p, steps)
      else match step g p with None -> (p, steps) | Some next -> go next (steps + 1)
    in
    go (Array.copy p) 0

  let opt1 g =
    let best = ref None and best_profile = ref [||] in
    Social.iter_profiles g (fun p ->
        let c = social_cost1 g p in
        match !best with
        | Some b when Rational.compare b c <= 0 -> ()
        | _ ->
          best := Some c;
          best_profile := Array.copy p);
    (Option.get !best, !best_profile)
end

let bench_walk () =
  Report.heading "WALK" "seed recompute vs incremental view";
  (* Workload 1: a fixed First_defector best-response walk. *)
  let n_walk = if quick then 8 else 12 and m_walk = 4 in
  let rng = Prng.Rng.create 0x11A1 in
  let g_walk =
    Generators.game rng ~n:n_walk ~m:m_walk
      ~weights:(Generators.Rational_weights 6)
      ~beliefs:(Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 })
  in
  let start = Array.make n_walk 0 in
  let budget = 64 * n_walk * m_walk * (n_walk + m_walk) in
  let seed_final = ref [||] and seed_steps = ref 0 in
  let walk_seed_ms =
    ms_of (fun () ->
        let p, k = Seed_eval.converge g_walk ~max_steps:budget start in
        seed_final := p;
        seed_steps := k)
  in
  let inc_outcome = ref None in
  let walk_inc_ms =
    ms_of (fun () -> inc_outcome := Some (Algo.Best_response.converge g_walk ~max_steps:budget start))
  in
  let inc = Option.get !inc_outcome in
  let walk_identical =
    inc.Algo.Best_response.converged
    && Pure.equal !seed_final inc.Algo.Best_response.profile
    && !seed_steps = inc.Algo.Best_response.steps
  in
  (* Workload 2: a fixed OPT1 search.  The seed scans all m^n profiles;
     [Social.opt1] is the branch-and-bound, which must return the same
     value and the same first argmin in odometer order. *)
  let n_opt = if quick then 7 else 9 and m_opt = 3 in
  let g_opt =
    Generators.game rng ~n:n_opt ~m:m_opt
      ~weights:(Generators.Integer_weights 5)
      ~beliefs:(Generators.Private_point { cap_bound = 6 })
  in
  let seed_opt = ref None in
  let opt_seed_ms = ms_of (fun () -> seed_opt := Some (Seed_eval.opt1 g_opt)) in
  let inc_opt = ref None in
  let opt_inc_ms = ms_of (fun () -> inc_opt := Some (Social.opt1 g_opt)) in
  let sv, sp = Option.get !seed_opt and iv, ip = Option.get !inc_opt in
  let opt_identical = Rational.equal sv iv && Pure.equal sp ip in
  let profiles = int_of_float (float_of_int m_opt ** float_of_int n_opt) in
  (* Workload 3: Nash verification throughput — the seed's
     recompute-per-latency check against the live packed-lane
     [Pure.is_nash], same games, same profiles, verdicts compared. *)
  let n_nash = 16 and m_nash = 3 in
  let reps = if quick then 40 else 200 in
  let nash_batch =
    List.init 25 (fun _ ->
        let g =
          Generators.game rng ~n:n_nash ~m:m_nash
            ~weights:(Generators.Integer_weights 6)
            ~beliefs:(Generators.Private_point { cap_bound = 8 })
        in
        (g, Array.init n_nash (fun _ -> Prng.Rng.int rng m_nash)))
  in
  let seed_verdicts = List.map (fun (g, sigma) -> Seed_eval.defectors g sigma = []) nash_batch in
  let live_verdicts = List.map (fun (g, sigma) -> Pure.is_nash g sigma) nash_batch in
  let nash_identical = seed_verdicts = live_verdicts in
  let nash_seed_ms =
    ms_of (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (g, sigma) -> ignore (Sys.opaque_identity (Seed_eval.defectors g sigma = [])))
            nash_batch
        done)
  in
  let nash_live_ms =
    ms_of (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (g, sigma) -> ignore (Sys.opaque_identity (Pure.is_nash g sigma)))
            nash_batch
        done)
  in
  let nash_checks = reps * List.length nash_batch in
  let rows =
    [
      ("br_walk", n_walk, m_walk, !seed_steps, walk_seed_ms, walk_inc_ms, walk_identical);
      ("opt1_sweep", n_opt, m_opt, profiles, opt_seed_ms, opt_inc_ms, opt_identical);
      ("is_nash_check", n_nash, m_nash, nash_checks, nash_seed_ms, nash_live_ms, nash_identical);
    ]
  in
  let t =
    Stats.Table.create
      [ "workload"; "n"; "m"; "work"; "seed ms"; "incremental ms"; "speedup"; "identical" ]
  in
  List.iter
    (fun (name, n, m, work, s, i, ident) ->
      Stats.Table.add_row t
        [
          name; string_of_int n; string_of_int m; string_of_int work;
          Report.flt s; Report.flt i; Printf.sprintf "%.2fx" (s /. i); string_of_bool ident;
        ];
      emit "walk" name
        [
          ("n", Int n); ("m", Int m); ("work", Int work); ("seed_ms", Num s);
          ("incremental_ms", Num i); ("speedup", Num (s /. i)); ("identical", Bool ident);
        ])
    rows;
  Stats.Table.print t;
  Printf.printf "is_nash (n=%d, m=%d): %.0f checks/s live vs %.0f checks/s seed\n" n_nash m_nash
    (1000.0 *. float_of_int nash_checks /. nash_live_ms)
    (1000.0 *. float_of_int nash_checks /. nash_seed_ms)

(* ------------------------------------------------------------------ *)
(* Mixed-layer benchmark                                               *)

(* Old-vs-new exact expectation engine for the classical KP social
   cost E[max congestion].  [seed_expected_max_congestion] reimplements
   the seed semantics exactly as shipped — a View.sweep over all m^n
   realisations, each weighted by its product-measure probability —
   because the live [Congestion.expected_max_congestion] now rides the
   [Model.Load_dist] user-class DP over distinct load vectors.  Both
   engines run on the same instances and their exact rationals must be
   bit-identical before times are reported; instances whose m^n exceeds
   the seed's 10^6 realisation cap run the DP only and record the state
   count that made them feasible. *)
let seed_expected_max_congestion g p =
  let n = Game.users g and m = Game.links g in
  let caps = Game.capacity_row g 0 in
  let acc = ref Rational.zero in
  View.sweep g (fun v ->
      let prob = ref Rational.one in
      for i = 0 to n - 1 do
        prob := Rational.mul !prob p.(i).(View.link v i)
      done;
      if not (Rational.is_zero !prob) then begin
        let best = ref (Rational.div (View.load v 0) caps.(0)) in
        for l = 1 to m - 1 do
          best := Rational.max !best (Rational.div (View.load v l) caps.(l))
        done;
        acc := Rational.add !acc (Rational.mul !prob !best)
      end);
  !acc

let bench_mixed () =
  Report.heading "MIXED" "seed m^n enumerator vs load-distribution DP";
  let caps3 = [| Rational.one; Rational.two; Rational.of_int 3 |] in
  let uniform_kp n = Game.kp ~weights:(Array.make n Rational.one) ~capacities:caps3 in
  let two_class_kp n =
    Game.kp
      ~weights:(Array.init n (fun i -> if i < n / 2 then Rational.one else Rational.two))
      ~capacities:caps3
  in
  (* Three classes of distinct power-of-two weights: enough distinct
     load vectors for a frontier of a few thousand states. *)
  let three_class_kp n =
    Game.kp
      ~weights:(Array.init n (fun i -> Rational.of_int (1 lsl (3 * i / n))))
      ~capacities:caps3
  in
  (* Fractional weights (L = 12) and rational capacities (C = 1001):
     the seed gate then reaches the scaled lattice kernel, which integer
     weights and capacities 1, 2, 3 leave at L = C = 1. *)
  let fractional_kp n =
    let ws = [| Rational.half; Rational.of_ints 2 3; Rational.of_ints 5 4 |] in
    Game.kp
      ~weights:(Array.init n (fun i -> ws.(3 * i / n)))
      ~capacities:[| Rational.of_ints 7 2; Rational.of_ints 11 3; Rational.of_ints 13 5 |]
  in
  (* (instance label, game, profile, m^n within the seed's cap?) *)
  let instances =
    [
      ("uniform_n12", uniform_kp 12, `Uniform, true);
      ("two_classes_n12", two_class_kp 12, `Uniform, true);
      ("fractional_n12", fractional_kp 12, `Uniform, true);
      ("uniform_n20", uniform_kp 20, `Uniform, false);
      ("uniform_n40", uniform_kp 40, `Uniform, false);
      ("three_classes_n24", three_class_kp 24, `Uniform, false);
    ]
  in
  let rows =
    List.map
      (fun (name, g, prof, seed_feasible) ->
        let p = match prof with `Uniform -> Mixed.uniform g in
        let dist = Load_dist.of_mixed g p in
        let dp_value = ref Rational.zero in
        let dp_ms = ms_of (fun () -> dp_value := Congestion.expected_max_congestion g p) in
        let seed =
          if not seed_feasible then None
          else begin
            let seed_value = ref Rational.zero in
            let seed_ms = ms_of (fun () -> seed_value := seed_expected_max_congestion g p) in
            Some (seed_ms, Rational.equal !seed_value !dp_value)
          end
        in
        ( name,
          Game.users g,
          Game.links g,
          Load_dist.classes dist,
          Load_dist.size dist,
          dp_ms,
          seed,
          Rational.to_string !dp_value ))
      instances
  in
  let t =
    Stats.Table.create
      [ "instance"; "n"; "m"; "classes"; "states"; "seed ms"; "DP ms"; "speedup"; "identical" ]
  in
  List.iter
    (fun (name, n, m, classes, states, dp_ms, seed, value) ->
      let seed_ms, speedup, identical =
        match seed with
        | Some (s, ident) -> (Report.flt s, Printf.sprintf "%.1fx" (s /. dp_ms), string_of_bool ident)
        | None -> ("beyond m^n cap", "n/a", "n/a")
      in
      Stats.Table.add_row t
        [
          name; string_of_int n; string_of_int m; string_of_int classes;
          string_of_int states; seed_ms; Report.flt dp_ms; speedup; identical;
        ];
      (* Instances beyond the seed's cap have no seed time to compare. *)
      emit "mixed" name
        ([
           ("n", Int n); ("m", Int m); ("classes", Int classes); ("states", Int states);
           ("dp_ms", Num dp_ms); ("exceeds_seed_limit", Bool (seed = None)); ("value", Str value);
         ]
        @
        match seed with
        | Some (s, ident) -> [ ("seed_ms", Num s); ("speedup", Num (s /. dp_ms)); ("identical", Bool ident) ]
        | None -> []))
    rows;
  Stats.Table.print t

(* ------------------------------------------------------------------ *)
(* Class-layer benchmark                                               *)

(* Exact equilibria at population scale.  The same k = 8, m = 4 class
   family is instantiated at n ≈ 10^3 and n ≈ 10^6 (per-class counts
   proportional to the class index); every per-class capacity row is a
   rational multiple of one common base vector, so block best-response
   dynamics ride a weighted potential and must converge.  Each row
   times [Algo.Cbr.converge] from the proportional start and
   [Model.Cview.is_nash] on the result — both poly(k, m), so the two
   sizes should cost the same — and at the small size the verdict is
   cross-checked against the per-user [Pure.is_nash] on the expanded
   game. *)
let bench_class () =
  Report.heading "CLASS" "exact equilibria for millions of users";
  let k = 8 and m = 4 in
  let base = [| Rational.of_int 5; Rational.of_int 4; Rational.of_int 3; Rational.two |] in
  let class_game per_class =
    (* counts proportional to c+1, weights 1..k, rows (c+2)/2 · base *)
    let counts = Array.init k (fun c -> per_class * (c + 1)) in
    let weights = Array.init k (fun c -> Rational.of_int (c + 1)) in
    let caps =
      Array.init k (fun c ->
          Array.map (fun b -> Rational.mul (Rational.of_ints (c + 2) 2) b) base)
    in
    Cgame.of_capacities ~counts ~weights caps
  in
  let sizes = [ ("k8_m4_small", 28); ("k8_m4_million", 27_778) ] in
  let rows =
    List.map
      (fun (name, per_class) ->
        let g = class_game per_class in
        let n = Cgame.users g in
        let start = Algo.Cbr.proportional_start g in
        let o = Algo.Cbr.converge g start in
        let v = Cview.of_profile g o.Algo.Cbr.profile in
        let nash = Cview.is_nash v in
        let converge_ms = ms_of (fun () -> ignore (Algo.Cbr.converge g start)) in
        let is_nash_us, _ = Scaling.time_call (fun () -> ignore (Cview.is_nash v)) in
        let expand_agrees =
          if n > 2_000 then None
          else
            let eg = Cgame.expand g in
            let ep = Cgame.expand_profile g o.Algo.Cbr.profile in
            Some (Pure.is_nash eg ep = nash)
        in
        emit "class" name
          ([
             ("n", Int n); ("k", Int k); ("m", Int m); ("steps", Int o.Algo.Cbr.steps);
             ("users_moved", Int o.Algo.Cbr.users_moved); ("converge_ms", Num converge_ms);
             ("is_nash_us", Num is_nash_us); ("converged", Bool o.Algo.Cbr.converged);
             ("nash", Bool nash);
           ]
          @ match expand_agrees with Some b -> [ ("expand_agrees", Bool b) ] | None -> []);
        (name, n, o.Algo.Cbr.steps, o.Algo.Cbr.users_moved, converge_ms, is_nash_us, nash,
         expand_agrees))
      sizes
  in
  let t =
    Stats.Table.create
      [ "instance"; "n"; "k"; "m"; "steps"; "users moved"; "converge ms"; "is_nash µs";
        "nash"; "per-user agrees" ]
  in
  List.iter
    (fun (name, n, steps, moved, converge_ms, is_nash_us, nash, agrees) ->
      Stats.Table.add_row t
        [
          name; string_of_int n; string_of_int k; string_of_int m; string_of_int steps;
          string_of_int moved; Report.flt converge_ms; Report.flt is_nash_us;
          string_of_bool nash;
          (match agrees with Some b -> string_of_bool b | None -> "skipped (n large)");
        ])
    rows;
  Stats.Table.print t;
  let ratio small big = if small > 0.0 then big /. small else 0.0 in
  let pick f = match rows with [ s; b ] -> ratio (f s) (f b) | _ -> 0.0 in
  let is_nash_ratio = pick (fun (_, _, _, _, _, us, _, _) -> us) in
  let converge_ratio = pick (fun (_, _, _, _, ms, _, _, _) -> ms) in
  Printf.printf "cost flatness across 1000x population growth: is_nash %.2fx, converge %.2fx\n"
    is_nash_ratio converge_ratio;
  emit "class" "flatness"
    [ ("is_nash_ratio", Num is_nash_ratio); ("converge_ratio", Num converge_ratio) ]

(* ------------------------------------------------------------------ *)
(* Price-of-ignorance benchmark                                        *)

(* Four populations — informed Bayesian, misinformed Bayesian, robust
   Strict and Bernoulli Participation — play shared sampled instances;
   every equilibrium is priced under the true capacities (see
   Experiments.Ignorance).  All arithmetic is exact, so the rows are
   bit-identical across runs and domain counts. *)
let bench_ignorance () =
  Report.heading "IGNORANCE" "price of ignorance across uncertainty backends";
  let presences = Rational.[ one; of_ints 3 4; of_ints 1 2; of_ints 1 4 ] in
  let t = trials 40 in
  let rows = Ignorance.run ~seed:2006 ~n:4 ~m:2 ~states:3 ~presences ~trials:t () in
  Stats.Table.print (Ignorance.table rows);
  List.iter
    (fun (r : Ignorance.row) ->
      emit "ignorance" ("presence=" ^ Rational.to_string r.presence)
        [
          ("trials", Int r.trials); ("informed_ratio", Num r.informed_ratio);
          ("misinformed_ratio", Num r.misinformed_ratio); ("robust_ratio", Num r.robust_ratio);
          ("demand_gain", Num r.demand_gain); ("expected_congestion", Num r.expected_congestion);
          ("equilibrium_failures", Int r.equilibrium_failures);
        ])
    rows

(* ------------------------------------------------------------------ *)
(* Streaming-repair benchmark                                          *)

(* A rolling 10^5-user class game absorbs a deterministic mutation
   stream (arrivals, departures, reweights, whole-row capacity
   rescalings); after every batch the equilibrium is repaired in place
   by [Serve.Repair.repair_batch] AND re-solved from scratch
   ([Cview.to_cgame] + proportional start + [Algo.Cbr.converge] +
   [Cview.is_nash]), and both verdicts must agree — the headline is
   the repair-vs-resolve wall-clock ratio and the sustained
   mutations/sec.  Capacity revisions rescale a class's whole row, so
   every row stays a rational multiple of one common base vector and
   block best-response dynamics keep their weighted potential.  Each
   side is timed single-shot per batch (repair mutates the view, so it
   cannot be replayed) and aggregated over the stream. *)
let bench_serve () =
  Report.heading "SERVE" "incremental repair vs re-solve under mutation streams";
  (* All weights carry denominator 4 so the view's packed lane survives
     reweights (the packing scale is the lcm of weight denominators and
     is fixed at view creation); all capacity rows are rational
     multiples of one [base] vector, so block best response rides a
     weighted potential and Cbr converges on both sides. *)
  let k = 96 and m = 8 in
  let base = Array.init m (fun l -> Rational.of_int (m + 1 - l)) in
  let counts = Array.init k (fun _ -> 1050) in
  let weights = Array.init k (fun c -> Rational.of_ints ((4 * ((c mod 16) + 1)) + 1) 4) in
  let row_scale c = Rational.of_ints ((c mod 5) + 2) 2 in
  let caps = Array.init k (fun c -> Array.map (Rational.mul (row_scale c)) base) in
  let g = Cgame.of_capacities ~counts ~weights caps in
  let users_initial = Cgame.users g in
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  if not o.Algo.Cbr.converged then failwith "bench_serve: initial solve did not converge";
  let v = Cview.of_profile g o.Algo.Cbr.profile in
  let rng = Prng.Rng.create 2006 in
  let batches = if quick then 40 else 200 in
  let cur_users () =
    let t = ref 0 in
    for c = 0 to k - 1 do
      t := !t + Cview.class_count v c
    done;
    !t
  in
  (* The stream is generated against the live view so departures always
     name an occupied link and never empty a class; when the rolling
     population touches the 10^5 floor the next batch is forced to be
     an arrival. *)
  let gen_batch () =
    let kind = if cur_users () <= 100_100 then 0 else Prng.Rng.int rng 4 in
    match kind with
    | 0 ->
      let cls = Prng.Rng.int rng k and link = Prng.Rng.int rng m in
      [ Serve.Mutation.Arrive { cls; link; count = 1 + Prng.Rng.int rng 8 } ]
    | 1 ->
      let cls = Prng.Rng.int rng k in
      let off = Prng.Rng.int rng m in
      let link = ref (-1) in
      for i = 0 to m - 1 do
        let l = (off + i) mod m in
        if !link < 0 && Cview.assigned v cls l > 0 then link := l
      done;
      let l = !link in
      let avail = min (Cview.assigned v cls l) (Cview.class_count v cls - 1) in
      let avail = min avail 8 in
      if avail <= 0 then [ Serve.Mutation.Arrive { cls; link = l; count = 1 } ]
      else [ Serve.Mutation.Depart { cls; link = l; count = 1 + Prng.Rng.int rng avail } ]
    | 2 ->
      (* bounded nudge: the class keeps its magnitude (base + r/4 for
         r in {1..3}) and the denominator keeps dividing the packing
         scale, so the fast lane survives *)
      let cls = Prng.Rng.int rng k in
      let b = (cls mod 16) + 1 in
      [ Serve.Mutation.Reweight
          { cls; weight = Rational.of_ints ((4 * b) + 1 + Prng.Rng.int rng 3) 4 } ]
    | _ ->
      (* rescale the whole row by a factor in [3/4, 5/4]: rows stay
         proportional to [base] *)
      let cls = Prng.Rng.int rng k in
      let scale =
        Rational.mul (row_scale cls) (Rational.of_ints (6 + Prng.Rng.int rng 5) 8)
      in
      List.init m (fun link ->
          Serve.Mutation.Revise_capacity { cls; link; cap = Rational.mul scale base.(link) })
  in
  let repair_total = ref 0.0 and resolve_total = ref 0.0 in
  let total_mutations = ref 0 and repair_moves = ref 0 and repair_users_moved = ref 0 in
  let fallbacks = ref 0 and resolve_steps = ref 0 in
  let min_users = ref (cur_users ()) and max_users = ref (cur_users ()) in
  let verdicts_ok = ref true in
  for _b = 1 to batches do
    let batch = gen_batch () in
    total_mutations := !total_mutations + List.length batch;
    let t0 = Unix.gettimeofday () in
    let r = Serve.Repair.repair_batch v batch in
    let t1 = Unix.gettimeofday () in
    repair_total := !repair_total +. (t1 -. t0);
    repair_moves := !repair_moves + r.Serve.Repair.moves;
    repair_users_moved := !repair_users_moved + r.Serve.Repair.users_moved;
    if r.Serve.Repair.fallback then incr fallbacks;
    (* Untimed: a batch that began certified ends on the certificate, not
       a scan, so the verdict compared below is this exact one. *)
    let nash = Cview.is_nash v in
    let t2 = Unix.gettimeofday () in
    let g' = Cview.to_cgame v in
    let o' = Algo.Cbr.converge g' (Algo.Cbr.proportional_start g') in
    let rv = Cview.of_profile g' o'.Algo.Cbr.profile in
    let nash' = o'.Algo.Cbr.converged && Cview.is_nash rv in
    let t3 = Unix.gettimeofday () in
    resolve_total := !resolve_total +. (t3 -. t2);
    resolve_steps := !resolve_steps + o'.Algo.Cbr.steps;
    if not (r.Serve.Repair.nash && nash && nash') then verdicts_ok := false;
    let u = cur_users () in
    if u < !min_users then min_users := u;
    if u > !max_users then max_users := u
  done;
  let speedup = if !repair_total > 0.0 then !resolve_total /. !repair_total else 0.0 in
  let mutations_per_sec =
    if !repair_total > 0.0 then float_of_int !total_mutations /. !repair_total else 0.0
  in
  let t =
    Stats.Table.create
      [ "batches"; "mutations"; "repair ms"; "resolve ms"; "speedup"; "mutations/s";
        "repair moves"; "fallbacks"; "users min..max" ]
  in
  Stats.Table.add_row t
    [
      string_of_int batches; string_of_int !total_mutations;
      Report.flt (!repair_total *. 1000.0); Report.flt (!resolve_total *. 1000.0);
      Report.flt speedup; Report.flt mutations_per_sec; string_of_int !repair_moves;
      string_of_int !fallbacks; Printf.sprintf "%d..%d" !min_users !max_users;
    ];
  Stats.Table.print t;
  Printf.printf "repair-vs-resolve speedup over %d batches: %.1fx (verdicts identical: %b)\n"
    batches speedup !verdicts_ok;
  emit "serve" "k96_m8_stream"
    [
      ("k", Int k); ("m", Int m); ("users_initial", Int users_initial); ("batches", Int batches);
      ("mutations", Int !total_mutations); ("repair_ms", Num (!repair_total *. 1000.0));
      ("resolve_ms", Num (!resolve_total *. 1000.0)); ("speedup", Num speedup);
      ("mutations_per_sec", Num mutations_per_sec); ("repair_moves", Int !repair_moves);
      ("repair_users_moved", Int !repair_users_moved); ("fallbacks", Int !fallbacks);
      ("resolve_steps", Int !resolve_steps); ("users_min", Int !min_users);
      ("users_max", Int !max_users); ("users_final", Int (cur_users ()));
      ("verdicts_identical", Bool !verdicts_ok);
    ]

let main () =
  Printf.printf "Network Uncertainty in Selfish Routing — reproduction harness%s\n"
    (if quick then " (QUICK mode)" else "");
  List.iter
    (fun section -> section ())
    [
      e1; e2; e3; e4; e5; e6; e7; e8_to_e10; e11; e12; e13; e14; e15; e16; e17; e18; e19; e20;
      figures; bench_numeric; bench_walk; bench_mixed; bench_class; bench_ignorance; bench_serve;
    ];
  write_artefact ();
  print_endline "\nAll experiment tables regenerated. See EXPERIMENTS.md for the paper-vs-measured record."

let () = main ()
