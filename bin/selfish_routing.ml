(* Command-line interface for the network-uncertainty routing library.

   Subcommands:
     solve        compute a pure Nash equilibrium of a game file
     fmne         compute the fully mixed Nash equilibrium (Theorem 4.6)
     enumerate    list all pure Nash equilibria exhaustively
     mixed        enumerate ALL mixed Nash equilibria (support enumeration)
     correlated   optimise social cost over the correlated-equilibrium polytope
     bounds       print the price-of-anarchy bound values (Thms 4.13/4.14)
     potential    check the Monderer-Shapley exact-potential condition
     monte-carlo  cross-check exact latencies by state sampling
     fictitious   run fictitious play
     sweep        run a pure-NE existence sweep (Conjecture 3.7)
     serve        replay a mutation log, repairing equilibrium per batch
     wire         convert between the text formats and the binary wire format
     demo         generate a random instance, print and solve it *)

open Model
open Numeric
open Cmdliner

let game_arg =
  let doc = "Game description file (see the Game_io format in the README)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GAME" ~doc)

let seed_arg =
  let doc = "PRNG seed; every run is deterministic given the seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let initial_arg =
  let doc = "Initial per-link traffic, comma separated (e.g. 1/2,0)." in
  Arg.(value & opt (some string) None & info [ "initial" ] ~docv:"T" ~doc)

(* A count such as a worker-domain number or a move budget: a value
   below [lo] is a usage error (exit 124) reported by cmdliner before
   any output, not an exception from the code that uses it. *)
let at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ when lo = 1 -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = at_least 1

(* A malformed input file, a rejected mutation, conflicting flags or a
   request the input cannot satisfy is a user error, not a bug: report
   it as one line on stderr and exit 2, instead of letting cmdliner
   print an uncaught-exception trace and exit 125.  Earlier stdout is
   flushed first so the two streams stay in order. *)
let fail_input msg =
  flush stdout;
  prerr_endline ("selfish_routing: " ^ msg);
  exit 2

let input_guard ?(context = "") f x =
  try f x with Invalid_argument msg -> fail_input (context ^ msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One reader for every input file.  An SRWF payload names its kind in
   its header byte.  Text is told apart by its lines' first words:
   mutation logs use batch/arrive/depart, class games have 'class'
   rows, and everything else is a per-user game.  Parse errors then
   carry their native line- or offset-numbered messages. *)
type input = Game of Game.t | Cgame of Cgame.t | Log of Serve.Mutation.log

let classify_text text =
  let log = ref false and classes = ref false in
  Game_io.scan_lines text (fun _ _ -> function
    | ("batch" | "arrive" | "depart") :: _ -> log := true
    | "class" :: _ -> classes := true
    | _ -> ());
  if !log then Serve.Wire.Log else if !classes then Serve.Wire.Cgame else Serve.Wire.Game

let decode data =
  let wire = Serve.Wire.is_wire data in
  match if wire then Serve.Wire.peek_kind data else classify_text data with
  | Serve.Wire.Game -> Game (if wire then Serve.Wire.decode_game data else Game_io.parse data)
  | Serve.Wire.Cgame ->
    Cgame (if wire then Serve.Wire.decode_cgame data else Game_io.parse_cgame data)
  | Serve.Wire.Log -> Log (if wire then Serve.Wire.decode_log data else Serve.Mutation.parse data)

let read_input path = input_guard decode (read_file path)

let describe = function
  | Game _ -> "a per-user game"
  | Cgame _ -> "a class game"
  | Log _ -> "a mutation log"

let wrong_input cmd path input ~want =
  fail_input (Printf.sprintf "%s: %s is %s, not %s" cmd path (describe input) want)

let read_game cmd path =
  match read_input path with
  | Game g -> g
  | input -> wrong_input cmd path input ~want:"a per-user game"

let parse_initial g = function
  | None -> None
  | Some s ->
    let parts = String.split_on_char ',' s in
    if List.length parts <> Game.links g then
      fail_input
        (Printf.sprintf "--initial: expected %d entries (one per link), got %d" (Game.links g)
           (List.length parts));
    let entry q =
      try Rational.of_string q
      with Invalid_argument _ -> fail_input (Printf.sprintf "--initial: bad number %S" q)
    in
    Some (Array.of_list (List.map entry parts))

let print_profile g ?initial sigma =
  Printf.printf "profile: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int sigma)));
  Printf.printf "is Nash equilibrium: %b\n" (Pure.is_nash g ?initial sigma);
  for i = 0 to Game.users g - 1 do
    Printf.printf "  user %d: link %d, expected latency %s\n" i sigma.(i)
      (Rational.to_string (Pure.latency g ?initial sigma i))
  done;
  Printf.printf "SC1 = %s, SC2 = %s\n"
    (Rational.to_string (Pure.social_cost1 g ?initial sigma))
    (Rational.to_string (Pure.social_cost2 g ?initial sigma))

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

let uncertainty_arg =
  let backends =
    [
      ("auto", `U_auto); ("bayesian", `U_bayesian);
      ("participation", `U_participation); ("strict", `U_strict);
    ]
  in
  let doc =
    "Expected uncertainty backend of the game file (bayesian, participation \
     or strict). auto accepts whatever the file's 'uncertainty' stanza \
     declares; naming a backend fails fast when the file uses another one."
  in
  Arg.(value & opt (enum backends) `U_auto & info [ "uncertainty" ] ~docv:"BACKEND" ~doc)

(* Validate the file's backend against --uncertainty and announce it.
   The line is printed only for non-Bayesian backends or an explicit
   flag, keeping pre-stanza outputs byte-identical. *)
let check_backend flag kind =
  (match flag with
   | `U_auto -> ()
   | (`U_bayesian | `U_participation | `U_strict) as f ->
     let want =
       match f with
       | `U_bayesian -> Uncertainty.Bayesian
       | `U_participation -> Uncertainty.Participation
       | `U_strict -> Uncertainty.Strict
     in
     if not (Uncertainty.equal_kind want kind) then
       invalid_arg
         (Printf.sprintf "--uncertainty %s: the game file uses the %s backend"
            (Uncertainty.kind_name want) (Uncertainty.kind_name kind)));
  if (match flag with `U_auto -> false | _ -> true)
     || not (Uncertainty.equal_kind kind Uncertainty.Bayesian)
  then Printf.printf "uncertainty backend: %s\n" (Uncertainty.kind_name kind)

let run_solve_classes g uflag =
  input_guard (check_backend uflag) (Uncertainty.kind (Cgame.uncertainty g 0));
  Printf.printf "class game: %d classes, %d users, %d links\n" (Cgame.classes g)
    (Cgame.users g) (Cgame.links g);
  Printf.printf "algorithm: block best-response dynamics from the proportional start\n";
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  if not o.converged then fail_input "block best-response dynamics did not converge within budget";
  Printf.printf "(converged after %d block moves, %d users moved)\n" o.steps o.users_moved;
  let v = Cview.of_profile g o.profile in
  Array.iteri
    (fun c row ->
      Printf.printf "  class %d (count %d, weight %s): [%s]\n" c (Cgame.count g c)
        (Rational.to_string (Cgame.weight g c))
        (String.concat "; " (Array.to_list (Array.map string_of_int row))))
    o.profile;
  Printf.printf "is Nash equilibrium: %b\n" (Cview.is_nash v);
  Printf.printf "SC1 = %s, SC2 = %s\n"
    (Rational.to_string (Cview.social_cost1 v))
    (Rational.to_string (Cview.social_cost2 v))

let algo_arg =
  let algos =
    [
      ("auto", `Auto); ("two-links", `Two_links); ("symmetric", `Symmetric);
      ("uniform", `Uniform); ("best-response", `Best_response);
    ]
  in
  let doc =
    "Algorithm: auto picks the paper's solver matching the instance \
     (two-links for m=2, symmetric for equal weights, uniform for \
     uniform beliefs, best-response otherwise)."
  in
  Arg.(value & opt (enum algos) `Auto & info [ "algo" ] ~docv:"ALGO" ~doc)

let pick_auto g initial =
  (* Only best-response dynamics understands biased (non-load-linear)
     latencies; the closed-form solvers all guard on load-linearity. *)
  if not (Game.is_load_linear g) then `Best_response
  else if Game.links g = 2 then `Two_links
  else if Game.has_uniform_beliefs g then `Uniform
  else if Game.is_symmetric g && initial = None then `Symmetric
  else `Best_response

let run_solve_users g uflag algo initial_str seed =
  input_guard (check_backend uflag) (Uncertainty.kind (Game.uncertainty g 0));
  let initial = parse_initial g initial_str in
  let algo = if algo = `Auto then pick_auto g initial else algo in
  let sigma =
    match algo with
    | `Two_links ->
      Printf.printf "algorithm: A_twolinks (Theorem 3.3)\n";
      Algo.Two_links.solve ?initial g
    | `Symmetric ->
      if initial <> None then fail_input "A_symmetric does not support initial traffic";
      Printf.printf "algorithm: A_symmetric (Theorem 3.5)\n";
      Algo.Symmetric.solve g
    | `Uniform ->
      Printf.printf "algorithm: A_uniform (Theorem 3.6)\n";
      Algo.Uniform_beliefs.solve ?initial g
    | `Best_response | `Auto ->
      Printf.printf "algorithm: best-response dynamics from a random start\n";
      let rng = Prng.Rng.create seed in
      let start = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
      let budget = 64 * Game.users g * Game.links g * (Game.users g + Game.links g) in
      let o = Algo.Best_response.converge g ?initial ~max_steps:budget start in
      if not o.converged then fail_input "best-response dynamics did not converge within budget";
      Printf.printf "(converged after %d moves)\n" o.steps;
      o.profile
  in
  print_profile g ?initial sigma

(* A class game is solved by block best-response dynamics in
   poly(k,m), whatever the population size; --initial and --algo name
   per-user settings, so a class game refuses them. *)
let run_solve file uflag algo initial_str seed =
  match read_input file with
  | Game g -> run_solve_users g uflag algo initial_str seed
  | Cgame g ->
    if initial_str <> None || algo <> `Auto then
      fail_input (file ^ " is a class game; --initial and --algo apply to per-user games only");
    run_solve_classes g uflag
  | input -> wrong_input "solve" file input ~want:"a game"

let solve_cmd =
  let doc =
    "Compute a pure Nash equilibrium of a game file: a per-user game, or a class game \
     ('class <count> <weight> <c_1> ... <c_m>' rows, text or SRWF)."
  in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(const run_solve $ game_arg $ uncertainty_arg $ algo_arg $ initial_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* fmne                                                                *)

let run_fmne file =
  let g = read_game "fmne" file in
  let candidate = input_guard Algo.Fully_mixed.candidate g in
  Printf.printf "candidate probabilities (Lemma 4.3):\n";
  Array.iteri
    (fun i row ->
      Printf.printf "  user %d: [%s]\n" i
        (String.concat "; " (Array.to_list (Array.map Rational.to_string row))))
    candidate;
  match Algo.Fully_mixed.compute g with
  | None ->
    Printf.printf "no fully mixed Nash equilibrium exists (some probability leaves (0,1)).\n"
  | Some p ->
    Printf.printf "this is the unique fully mixed Nash equilibrium (Theorem 4.6).\n";
    for i = 0 to Game.users g - 1 do
      Printf.printf "  user %d equilibrium latency: %s\n" i
        (Rational.to_string (Mixed.min_latency g p i))
    done;
    Printf.printf "SC1 = %s, SC2 = %s\n"
      (Rational.to_string (Mixed.social_cost1 g p))
      (Rational.to_string (Mixed.social_cost2 g p))

let fmne_cmd =
  let info = Cmd.info "fmne" ~doc:"Compute the fully mixed Nash equilibrium (Theorem 4.6)." in
  Cmd.v info Term.(const run_fmne $ game_arg)

(* ------------------------------------------------------------------ *)
(* enumerate                                                           *)

let run_enumerate file =
  let g = read_game "enumerate" file in
  let nes = input_guard Algo.Enumerate.pure_nash g in
  Printf.printf "%d pure Nash equilibria (out of %s profiles):\n" (List.length nes)
    (match Social.profile_count g with Some c -> string_of_int c | None -> "many");
  let opt1, _ = Social.opt1 g and opt2, _ = Social.opt2 g in
  List.iter
    (fun ne ->
      Printf.printf "  [%s]  SC1=%s (ratio %s)  SC2=%s (ratio %s)\n"
        (String.concat "; " (Array.to_list (Array.map string_of_int ne)))
        (Rational.to_string (Pure.social_cost1 g ne))
        (Rational.to_string (Rational.div (Pure.social_cost1 g ne) opt1))
        (Rational.to_string (Pure.social_cost2 g ne))
        (Rational.to_string (Rational.div (Pure.social_cost2 g ne) opt2)))
    nes;
  Printf.printf "OPT1 = %s, OPT2 = %s\n" (Rational.to_string opt1) (Rational.to_string opt2)

let enumerate_cmd =
  let info = Cmd.info "enumerate" ~doc:"List all pure Nash equilibria exhaustively." in
  Cmd.v info Term.(const run_enumerate $ game_arg)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)

let run_bounds file =
  let g = read_game "bounds" file in
  Printf.printf "Theorem 4.14 (general) bound: %s ≈ %.4f\n"
    (Rational.to_string (Bounds.theorem_4_14 g))
    (Rational.to_float (Bounds.theorem_4_14 g));
  if Game.has_uniform_beliefs g then
    Printf.printf "Theorem 4.13 (uniform beliefs) bound: %s ≈ %.4f\n"
      (Rational.to_string (Bounds.theorem_4_13 g))
      (Rational.to_float (Bounds.theorem_4_13 g))
  else Printf.printf "Theorem 4.13 does not apply (beliefs are not uniform).\n"

let bounds_cmd =
  let info = Cmd.info "bounds" ~doc:"Print the price-of-anarchy bound values." in
  Cmd.v info Term.(const run_bounds $ game_arg)

(* ------------------------------------------------------------------ *)
(* mixed (support enumeration)                                         *)

let run_mixed file =
  let g = read_game "mixed" file in
  let result = input_guard Algo.Support_enum.all_nash g in
  Printf.printf "%d mixed Nash equilibria found by support enumeration"
    (List.length result.equilibria);
  if result.degenerate_supports > 0 then
    Printf.printf " (%d singular support systems skipped)" result.degenerate_supports;
  print_newline ();
  List.iter
    (fun (f : Algo.Support_enum.finding) ->
      Printf.printf "  supports %s:\n"
        (String.concat " "
           (Array.to_list
              (Array.map
                 (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}")
                 f.supports)));
      Array.iteri
        (fun i row ->
          Printf.printf "    user %d: [%s]  λ=%s\n" i
            (String.concat "; " (Array.to_list (Array.map Rational.to_string row)))
            (Rational.to_string f.latencies.(i)))
        f.profile)
    result.equilibria

let mixed_cmd =
  let info =
    Cmd.info "mixed" ~doc:"Enumerate all mixed Nash equilibria by support enumeration."
  in
  Cmd.v info Term.(const run_mixed $ game_arg)

(* ------------------------------------------------------------------ *)
(* potential                                                           *)

let run_potential file =
  let g = read_game "potential" file in
  match input_guard Algo.Potential.find_nonzero_square g with
  | None ->
    Printf.printf
      "the exact-potential condition (Monderer–Shapley) HOLDS on every deviation square.\n"
  | Some (sigma, i, j, li, lj) ->
    Printf.printf "NOT an exact potential game (Section 3.2): witness square\n";
    Printf.printf "  at profile [%s], user %d: %d→%d, user %d: %d→%d, defect %s\n"
      (String.concat "; " (Array.to_list (Array.map string_of_int sigma)))
      i sigma.(i) li j sigma.(j) lj
      (Rational.to_string (Algo.Potential.square_defect g sigma ~i ~j ~li ~lj))

let potential_cmd =
  let info =
    Cmd.info "potential" ~doc:"Check the Monderer–Shapley exact-potential condition."
  in
  Cmd.v info Term.(const run_potential $ game_arg)

(* ------------------------------------------------------------------ *)
(* monte-carlo                                                         *)

let run_monte_carlo file samples seed =
  let g = read_game "monte-carlo" file in
  let rng = Prng.Rng.create seed in
  let start = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
  let o = Algo.Best_response.converge g ~max_steps:1000 start in
  Printf.printf "profile [%s] (%s):\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int o.profile)))
    (if o.converged then "equilibrium" else "non-equilibrium");
  for i = 0 to Game.users g - 1 do
    let exact = Rational.to_float (Pure.latency g o.profile i) in
    let estimate =
      Experiments.Monte_carlo.estimate_latency g o.profile ~user:i ~samples rng
    in
    Printf.printf "  user %d: exact %.6f, %d-sample estimate %.6f (rel err %.2e)\n" i exact
      samples estimate
      (Float.abs (estimate -. exact) /. exact)
  done

let monte_carlo_cmd =
  let samples =
    Arg.(value & opt positive_int 100_000 & info [ "samples" ] ~doc:"States sampled per user.")
  in
  let info =
    Cmd.info "monte-carlo"
      ~doc:"Cross-check exact expected latencies against state sampling."
  in
  Cmd.v info Term.(const run_monte_carlo $ game_arg $ samples $ seed_arg)

(* ------------------------------------------------------------------ *)
(* correlated                                                          *)

let run_correlated file =
  let g = read_game "correlated" file in
  let show label (r : Algo.Correlated.result) =
    Printf.printf "%s SC1 = %s (%s):\n" label
      (Rational.to_string r.value)
      (Rational.to_decimal_string r.value ~digits:4);
    List.iter
      (fun (p, prob) ->
        Printf.printf "  P[%s] = %s\n"
          (String.concat "; " (Array.to_list (Array.map string_of_int p)))
          (Rational.to_string prob))
      r.distribution
  in
  show "best correlated equilibrium," (input_guard Algo.Correlated.best_social_cost g);
  show "worst correlated equilibrium," (Algo.Correlated.worst_social_cost g);
  let opt1, _ = Social.opt1 g in
  Printf.printf "OPT1 = %s\n" (Rational.to_string opt1)

let correlated_cmd =
  let info =
    Cmd.info "correlated"
      ~doc:"Optimise the social cost over the correlated-equilibrium polytope (exact LP)."
  in
  Cmd.v info Term.(const run_correlated $ game_arg)

(* ------------------------------------------------------------------ *)
(* fictitious                                                          *)

let run_fictitious file rounds seed =
  let g = read_game "fictitious" file in
  let rng = Prng.Rng.create seed in
  let start = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
  let o = input_guard (Algo.Fictitious.play g ~rounds ~window:10) start in
  Printf.printf "fictitious play: %d rounds, stabilised at a pure NE: %b\n" o.rounds o.stabilised;
  Printf.printf "last round actions: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int o.last_profile)));
  Printf.printf "empirical frequencies:\n";
  Array.iteri
    (fun i row ->
      Printf.printf "  user %d: [%s]\n" i
        (String.concat "; "
           (Array.to_list (Array.map (fun q -> Rational.to_decimal_string q ~digits:3) row))))
    o.empirical

let fictitious_cmd =
  let rounds =
    Arg.(value & opt positive_int 5000 & info [ "rounds" ] ~doc:"Maximum rounds to play.")
  in
  let info =
    Cmd.info "fictitious" ~doc:"Run fictitious play (simultaneous best responses to history)."
  in
  Cmd.v info Term.(const run_fictitious $ game_arg $ rounds $ seed_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let run_sweep seed trials n_hi m_hi =
  let ns = List.init (n_hi - 1) (fun i -> i + 2) in
  let ms = List.init (m_hi - 1) (fun i -> i + 2) in
  let rows =
    Experiments.Existence.run ~seed ~ns ~ms ~trials
      ~weights:(Experiments.Generators.Rational_weights 5)
      ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 })
      ()
  in
  Stats.Table.print (Experiments.Existence.table rows)

let sweep_cmd =
  let trials =
    Arg.(value & opt positive_int 50 & info [ "trials" ] ~doc:"Instances per (n,m) cell.")
  in
  let n_hi = Arg.(value & opt (at_least 2) 5 & info [ "max-users" ] ~doc:"Largest n (from 2).") in
  let m_hi = Arg.(value & opt (at_least 2) 3 & info [ "max-links" ] ~doc:"Largest m (from 2).") in
  let info =
    Cmd.info "sweep" ~doc:"Pure-NE existence sweep over random instances (Conjecture 3.7)."
  in
  Cmd.v info Term.(const run_sweep $ seed_arg $ trials $ n_hi $ m_hi)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let run_serve game_file log_file (_deprecated_domains : int) max_moves =
  let g =
    match read_input game_file with
    | Cgame g -> g
    | input -> wrong_input "serve" game_file input ~want:"a class game"
  in
  let log =
    match read_input log_file with
    | Log log -> log
    | input -> wrong_input "serve" log_file input ~want:"a mutation log"
  in
  Printf.printf "class game: %d classes, %d users, %d links; %d mutation batches\n"
    (Cgame.classes g) (Cgame.users g) (Cgame.links g) (List.length log);
  (* Solve on the serving cursor itself: the converged scan certifies
     it, so the first batch need not re-prove the equilibrium. *)
  let v = Cview.of_profile g (Algo.Cbr.proportional_start g) in
  let steps, users_moved, converged = Algo.Cbr.converge_in_place ~max_steps:max_moves v in
  if not converged then
    fail_input (Printf.sprintf "initial solve did not converge within --max-moves %d" max_moves);
  Printf.printf "initial equilibrium: %d block moves, %d users moved\n" steps users_moved;
  Cview.clear_history v;
  List.iteri
    (fun idx batch ->
      let r =
        input_guard
          ~context:(Printf.sprintf "batch %d: " (idx + 1))
          (Serve.Repair.repair_batch ~max_steps:max_moves v)
          batch
      in
      let users = ref 0 in
      for c = 0 to Cview.classes v - 1 do
        users := !users + Cview.class_count v c
      done;
      Printf.printf
        "{\"batch\":%d,\"mutations\":%d,\"moves\":%d,\"users_moved\":%d,\
         \"seeded_classes\":%d,\"seeded_links\":%d,\"frontier_links\":%d,\
         \"fallback\":%b,\"nash\":%b,\"users\":%d,\"sc1\":\"%s\"}\n"
        (idx + 1) (List.length batch) r.Serve.Repair.moves r.Serve.Repair.users_moved
        r.Serve.Repair.seeded_classes r.Serve.Repair.seeded_links r.Serve.Repair.frontier_links
        r.Serve.Repair.fallback r.Serve.Repair.nash !users
        (Rational.to_string (Cview.social_cost1 v));
      (* Serving never undoes: drop the history so memory stays flat
         over arbitrarily long logs. *)
      Cview.clear_history v)
    log

let serve_cmd =
  let log_arg =
    let doc = "Mutation log: text directives (batch/arrive/depart/reweight/capacity) or \
               the binary wire form."
    in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"MUTLOG" ~doc)
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~deprecated:"repair scans are serial; the value is ignored"
          ~doc:"Ignored; kept so existing invocations still parse.")
  in
  let max_moves =
    Arg.(
      value & opt positive_int 1_000_000
      & info [ "max-moves" ]
          ~doc:"Block-move budget for the initial solve and for each batch repair.")
  in
  let doc =
    "Replay a mutation log against a class game, repairing equilibrium after \
     each batch and emitting per-batch stats as JSON lines."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ game_arg $ log_arg $ domains $ max_moves)

(* ------------------------------------------------------------------ *)
(* wire                                                                *)

(* Binary decodes to the reduced text form, which is faithful to every
   latency; text encodes to binary. *)
let run_wire file out =
  let data = read_file file in
  let binary = Serve.Wire.is_wire data in
  if (not binary) && out = None then
    fail_input "wire: refusing to write binary data to stdout; pass --out FILE";
  let convert data =
    match decode data with
    | Game g -> if binary then Game_io.to_string g else Serve.Wire.encode_game g
    | Cgame g -> if binary then Game_io.to_class_string g else Serve.Wire.encode_cgame g
    | Log log -> if binary then Serve.Mutation.render log else Serve.Wire.encode_log log
  in
  let content = input_guard convert data in
  match out with
  | Some path -> (
    match open_out_bin path with
    | exception Sys_error msg -> fail_input ("wire: " ^ msg)
    | oc -> (
      (* [close_out] flushes, so a full device surfaces there, not in
         [output_string]. *)
      try
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc content;
            close_out oc)
      with Sys_error msg -> fail_input (Printf.sprintf "wire: %s: %s" path msg)))
  | None -> print_string content

let wire_cmd =
  let file_arg =
    let doc = "Input file, either text (game, class game, mutation log) or binary wire." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Output path.  Required when encoding text to binary." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)
  in
  let doc =
    "Convert between the text formats and the binary wire format (SRWF): \
     binary inputs are decoded to text, text inputs are encoded to binary."
  in
  Cmd.v (Cmd.info "wire" ~doc) Term.(const run_wire $ file_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let run_demo seed =
  let rng = Prng.Rng.create seed in
  let g =
    Experiments.Generators.game rng ~n:4 ~m:3
      ~weights:(Experiments.Generators.Integer_weights 5)
      ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 6; grain = 4 })
  in
  Printf.printf "# random instance (seed %d), reduced form:\n%s\n" seed (Game_io.to_string g);
  let start = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
  let o = Algo.Best_response.converge g ~max_steps:500 start in
  Printf.printf "best-response dynamics converged after %d moves\n" o.steps;
  print_profile g o.profile

let demo_cmd =
  let info = Cmd.info "demo" ~doc:"Generate a random instance and solve it end to end." in
  Cmd.v info Term.(const run_demo $ seed_arg)

let main_cmd =
  let doc = "Selfish routing under network uncertainty (Georgiou, Pavlides, Philippou 2006)." in
  let info = Cmd.info "selfish_routing" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      solve_cmd; fmne_cmd; enumerate_cmd; mixed_cmd; correlated_cmd; bounds_cmd;
      potential_cmd; monte_carlo_cmd; fictitious_cmd; sweep_cmd; serve_cmd; wire_cmd;
      demo_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
