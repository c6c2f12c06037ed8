open Model
open Numeric

let estimate_latency g sigma ~user ~samples rng =
  if samples <= 0 then invalid_arg "Monte_carlo.estimate_latency: samples must be positive";
  let b = Game.belief g user in
  let sampler = Prng.Alias.of_rationals (Belief.probs b) in
  let acc = ref 0.0 in
  for _ = 1 to samples do
    let k = Prng.Alias.sample sampler rng in
    acc := !acc +. Rational.to_float (Pure.latency_in_state g sigma user k)
  done;
  !acc /. float_of_int samples

type row = {
  n : int;
  m : int;
  states : int;
  samples : int;
  max_rel_error : float;
  mean_rel_error : float;
}

let run ~seed ~samples_list ~trials () =
  let n = 4 and m = 3 and states = 4 in
  Engine.sweep ~seed ~cells:samples_list ~trials
    ~task:(fun samples rng _trial ->
      let g =
        Generators.game rng ~n ~m
          ~weights:(Generators.Integer_weights 5)
          ~beliefs:(Generators.Shared_space { states; cap_bound = 6; grain = 5 })
      in
      let sigma = Array.init n (fun _ -> Prng.Rng.int rng m) in
      Array.init n (fun user ->
          let exact = Rational.to_float (Pure.latency g sigma user) in
          let estimate = estimate_latency g sigma ~user ~samples rng in
          Float.abs (estimate -. exact) /. exact))
    ~reduce:(fun samples per_trial ->
      let summary = Stats.Summary.of_array (Array.concat (Array.to_list per_trial)) in
      {
        n;
        m;
        states;
        samples;
        max_rel_error = summary.max;
        mean_rel_error = summary.mean;
      })

let table rows =
  let t = Stats.Table.create [ "n"; "m"; "states"; "samples"; "mean rel err"; "max rel err" ] in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.m;
          string_of_int r.states;
          string_of_int r.samples;
          Report.flt r.mean_rel_error;
          Report.flt r.max_rel_error;
        ])
    rows;
  t
