open Model

type row = {
  n : int;
  m : int;
  weights : string;
  beliefs : string;
  trials : int;
  with_pure : int;
  min_ne : int;
  mean_ne : float;
  max_ne : int;
  br_converged : int;
  mean_br_steps : float;
}

let random_profile rng g =
  Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g))

(* Per-trial outcome; folded into a row in trial order by [reduce]. *)
type outcome = { ne_count : int; converged_steps : int option }

let run ~seed ~ns ~ms ~trials ~weights ~beliefs () =
  let cells = List.concat_map (fun n -> List.map (fun m -> (n, m)) ms) ns in
  Engine.sweep ~seed ~cells ~trials
    ~task:(fun (n, m) rng _trial ->
      let g = Generators.game rng ~n ~m ~weights ~beliefs in
      (* [count] sweeps an incremental view over all m^n profiles and
         [converge] holds one view for the whole walk — per-trial cost
         is dominated by the O(n·m) Nash checks, not load recomputes. *)
      let ne_count = Algo.Enumerate.count g in
      let start = random_profile rng g in
      let budget = 16 * n * m * (n + m) in
      let outcome = Algo.Best_response.converge g ~max_steps:budget start in
      { ne_count; converged_steps = (if outcome.converged then Some outcome.steps else None) })
    ~reduce:(fun (n, m) outcomes ->
      let with_pure = ref 0 in
      let sum = ref 0 and min_ne = ref max_int and max_ne = ref 0 in
      let br_converged = ref 0 in
      let br_steps = ref 0 in
      Array.iter
        (fun o ->
          if o.ne_count > 0 then incr with_pure;
          sum := !sum + o.ne_count;
          if o.ne_count < !min_ne then min_ne := o.ne_count;
          if o.ne_count > !max_ne then max_ne := o.ne_count;
          match o.converged_steps with
          | Some steps ->
            incr br_converged;
            br_steps := !br_steps + steps
          | None -> ())
        outcomes;
      {
        n;
        m;
        weights = Generators.weight_family_name weights;
        beliefs = Generators.belief_family_name beliefs;
        trials;
        with_pure = !with_pure;
        min_ne = !min_ne;
        mean_ne = float_of_int !sum /. float_of_int (Array.length outcomes);
        max_ne = !max_ne;
        br_converged = !br_converged;
        mean_br_steps =
          (if !br_converged = 0 then Float.nan
           else float_of_int !br_steps /. float_of_int !br_converged);
      })

let table rows =
  let t =
    Stats.Table.create
      [ "n"; "m"; "weights"; "beliefs"; "trials"; "pure NE"; "min#"; "mean#"; "max#"; "BR conv"; "BR steps" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.m;
          r.weights;
          r.beliefs;
          string_of_int r.trials;
          Report.pct r.with_pure r.trials;
          string_of_int r.min_ne;
          Report.flt r.mean_ne;
          string_of_int r.max_ne;
          Report.pct r.br_converged r.trials;
          Report.flt r.mean_br_steps;
        ])
    rows;
  t
