type row = { algorithm : string; n : int; m : int; microseconds : float; repetitions : int }

let time_call f =
  (* Warm up once, then repeat until >= 20ms of CPU time accumulates so
     Sys.time's resolution does not dominate. *)
  f ();
  let start = Sys.time () in
  let reps = ref 0 in
  let elapsed () = Sys.time () -. start in
  while elapsed () < 0.02 && !reps < 1_000_000 do
    f ();
    incr reps
  done;
  (elapsed () *. 1e6 /. float_of_int (max 1 !reps), !reps)

type algorithm = Two_links | Symmetric | Uniform | Fully_mixed

(* Each algorithm's name, instance family and solver call. *)
let spec ~cap = function
  | Two_links ->
    ( "A_twolinks (Thm 3.3)", Generators.Integer_weights cap,
      Generators.Private_point { cap_bound = cap },
      fun g -> ignore (Algo.Two_links.solve g) )
  | Symmetric ->
    ( "A_symmetric (Thm 3.5)", Generators.Unit_weights,
      Generators.Private_point { cap_bound = cap },
      fun g -> ignore (Algo.Symmetric.solve g) )
  | Uniform ->
    ( "A_uniform (Thm 3.6)", Generators.Integer_weights cap,
      Generators.Uniform_link_view { cap_bound = cap },
      fun g -> ignore (Algo.Uniform_beliefs.solve g) )
  | Fully_mixed ->
    ( "FMNE closed form (Cor 4.7)", Generators.Integer_weights cap,
      Generators.Private_point { cap_bound = cap },
      fun g -> ignore (Algo.Fully_mixed.candidate g) )

let run ~seed algorithm ~sizes =
  let rng = Prng.Rng.create seed in
  let name, weights, beliefs, solve = spec ~cap:8 algorithm in
  List.map
    (fun (n, m) ->
      let g = Generators.game rng ~n ~m ~weights ~beliefs in
      let us, reps = time_call (fun () -> solve g) in
      { algorithm = name; n; m; microseconds = us; repetitions = reps })
    sizes

let table rows =
  let t = Stats.Table.create [ "algorithm"; "n"; "m"; "µs/call"; "reps" ] in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          r.algorithm;
          string_of_int r.n;
          string_of_int r.m;
          Report.flt r.microseconds;
          string_of_int r.repetitions;
        ])
    rows;
  t
