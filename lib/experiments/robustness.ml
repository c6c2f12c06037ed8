open Model
open Numeric

type row = {
  epsilon : Rational.t;
  trials : int;
  mean_ratio : float;
  max_ratio : float;
  equilibrium_failures : int;
}

(* b = (1-ε)·truth + ε·noise, exactly. *)
let contaminate ~epsilon ~truth ~noise =
  let keep = Rational.sub Rational.one epsilon in
  Array.init (Array.length truth) (fun k ->
      Rational.add (Rational.mul keep truth.(k)) (Rational.mul epsilon noise.(k)))

let truth_ratio g ~truth profile =
  let n = Game.users g in
  let true_caps = Belief.effective_capacities truth in
  (* One view materialises the loads; the realised cost reads them
     under the true capacities (the beliefs only shaped the dynamics). *)
  let v = View.of_profile g profile in
  let realised =
    Rational.sum
      (List.init n (fun i -> Rational.div (View.load v profile.(i)) true_caps.(profile.(i))))
  in
  (* The best any coordinator could do if everyone knew the truth:
     OPT1 of the game with the true shared belief. *)
  let opt, _ = Social.opt1 (Game.make ~weights:(Game.weights g) ~beliefs:(Array.make n truth)) in
  Rational.to_float (Rational.div realised opt)

let run ?(noise = `Simplex) ~seed ~n ~m ~states ~epsilons ~trials () =
  Engine.sweep ~seed ~cells:epsilons ~trials
    ~task:(fun epsilon rng _trial ->
      let space = Generators.state_space rng ~m ~states ~cap_bound:6 in
      let truth = Prng.Rng.positive_simplex rng ~dim:states ~grain:(states + 3) in
      let weights =
        Array.init n (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 5))
      in
      let beliefs =
        Array.init n (fun _ ->
            let noise_dist =
              match noise with
              | `Simplex -> Prng.Rng.positive_simplex rng ~dim:states ~grain:(states + 3)
              | `Point ->
                (* Confidently wrong: all mass on one random state. *)
                let k = Prng.Rng.int rng states in
                Array.init states (fun j -> if j = k then Rational.one else Rational.zero)
            in
            Belief.make space (contaminate ~epsilon ~truth ~noise:noise_dist))
      in
      let g = Game.make ~weights ~beliefs in
      let start = Array.init n (fun _ -> Prng.Rng.int rng m) in
      let o = Algo.Best_response.converge g ~max_steps:(64 * n * m * (n + m)) start in
      if not o.converged then None
      else Some (truth_ratio g ~truth:(Belief.make space truth) o.profile))
    ~reduce:(fun epsilon outcomes ->
      let ratios = ref Stats.Welford.empty in
      let failures = ref 0 in
      Array.iter
        (function
          | Some ratio -> ratios := Stats.Welford.add !ratios ratio
          | None -> incr failures)
        outcomes;
      {
        epsilon;
        trials;
        mean_ratio = (if Stats.Welford.count !ratios = 0 then Float.nan else Stats.Welford.mean !ratios);
        max_ratio = (if Stats.Welford.count !ratios = 0 then Float.nan else Stats.Welford.max !ratios);
        equilibrium_failures = !failures;
      })

let table rows =
  let t =
    Stats.Table.create
      [ "ε (contamination)"; "trials"; "mean realised SC1 / true OPT1"; "max"; "BR failures" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          Rational.to_string r.epsilon;
          string_of_int r.trials;
          Report.flt r.mean_ratio;
          Report.flt r.max_ratio;
          string_of_int r.equilibrium_failures;
        ])
    rows;
  t
