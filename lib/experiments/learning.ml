open Model
open Numeric

type row = {
  observations : int;
  trials : int;
  mean_ratio : float;
  max_ratio : float;
  mean_belief_error : float;
  equilibrium_failures : int;
}

(* Total variation distance between an estimated belief and the truth. *)
let tv_distance estimated truth =
  let probs = Belief.probs estimated in
  let acc = ref Rational.zero in
  Array.iteri (fun k p -> acc := Rational.add !acc (Rational.abs (Rational.sub p truth.(k)))) probs;
  Rational.to_float (Rational.div !acc Rational.two)

let run ~seed ~n ~m ~states ~observations ~trials () =
  Engine.sweep ~seed ~cells:observations ~trials
    ~task:(fun k rng _trial ->
      let space = Generators.state_space rng ~m ~states ~cap_bound:6 in
      let truth = Prng.Rng.positive_simplex rng ~dim:states ~grain:(states + 3) in
      let sampler = Prng.Alias.of_rationals truth in
      let weights = Array.init n (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 5)) in
      let tv_errors = Array.make n 0.0 in
      let beliefs =
        Array.init n (fun i ->
            let counts = Array.make states 0 in
            for _ = 1 to k do
              let s = Prng.Alias.sample sampler rng in
              counts.(s) <- counts.(s) + 1
            done;
            let b = Belief.from_counts space counts ~smoothing:Rational.one in
            tv_errors.(i) <- tv_distance b truth;
            b)
      in
      let g = Game.make ~weights ~beliefs in
      let start = Array.init n (fun _ -> Prng.Rng.int rng m) in
      let o = Algo.Best_response.converge g ~max_steps:(64 * n * m * (n + m)) start in
      let ratio =
        if not o.converged then None
        else Some (Robustness.truth_ratio g ~truth:(Belief.make space truth) o.profile)
      in
      (tv_errors, ratio))
    ~reduce:(fun k per_trial ->
      let ratios = ref Stats.Welford.empty in
      let errors = ref Stats.Welford.empty in
      Array.iter
        (fun (tv_errors, ratio) ->
          Array.iter (fun e -> errors := Stats.Welford.add !errors e) tv_errors;
          match ratio with
          | Some r -> ratios := Stats.Welford.add !ratios r
          | None -> ())
        per_trial;
      {
        observations = k;
        trials;
        mean_ratio = Stats.Welford.mean !ratios;
        max_ratio = Stats.Welford.max !ratios;
        mean_belief_error = Stats.Welford.mean !errors;
        equilibrium_failures = trials - Stats.Welford.count !ratios;
      })

let table rows =
  let t =
    Stats.Table.create
      [ "observations/user"; "trials"; "mean realised SC1 / true OPT1"; "max"; "mean TV error" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.observations;
          string_of_int r.trials;
          Report.flt r.mean_ratio;
          Report.flt r.max_ratio;
          Report.flt r.mean_belief_error;
        ])
    rows;
  t
