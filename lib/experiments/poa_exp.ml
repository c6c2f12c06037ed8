open Model
open Numeric

type row = {
  n : int;
  m : int;
  beliefs : string;
  trials : int;
  equilibria : int;
  max_ratio1 : float;
  max_ratio2 : float;
  mean_bound1 : float;
  min_slack1 : float;
  min_slack2 : float;
  violations : int;
}

(* Per-equilibrium measurements, already rounded to float except the
   exact violation verdict (decided over rationals in the task). *)
type eq_outcome = {
  r1 : float;
  r2 : float;
  slack1 : float;
  slack2 : float;
  violated : bool;
}

type outcome = { bound_f : float; eqs : eq_outcome list }

let run ~seed ~ns ~ms ~trials ~weights ~beliefs ~bound () =
  let cells = List.concat_map (fun n -> List.map (fun m -> (n, m)) ms) ns in
  Engine.sweep ~seed ~cells ~trials
    ~task:(fun (n, m) rng _trial ->
      let g = Generators.game rng ~n ~m ~weights ~beliefs in
      let bound_value =
        match bound with
        | `Uniform -> Bounds.theorem_4_13 g
        | `General -> Bounds.theorem_4_14 g
      in
      let opt1, _ = Social.opt1 g and opt2, _ = Social.opt2 g in
      let consider ~sc1 ~sc2 =
        let r1 = Rational.div sc1 opt1 in
        let r2 = Rational.div sc2 opt2 in
        {
          r1 = Rational.to_float r1;
          r2 = Rational.to_float r2;
          slack1 = Rational.to_float (Rational.sub bound_value r1);
          slack2 = Rational.to_float (Rational.sub bound_value r2);
          violated =
            Rational.compare r1 bound_value > 0 || Rational.compare r2 bound_value > 0;
        }
      in
      (* A pure equilibrium's mixed costs are its pure costs (the
         product measure is a point mass), so score it directly on the
         profile instead of expanding the degenerate m^n expectation
         through [Mixed.of_pure]. *)
      let pure =
        List.map
          (fun ne -> consider ~sc1:(Pure.social_cost1 g ne) ~sc2:(Pure.social_cost2 g ne))
          (Algo.Enumerate.pure_nash g)
      in
      let fm =
        match Algo.Fully_mixed.compute g with
        | Some p ->
          (* One cached evaluator serves both social costs. *)
          let e = Mixed.Eval.make g p in
          [ consider ~sc1:(Mixed.Eval.social_cost1 e) ~sc2:(Mixed.Eval.social_cost2 e) ]
        | None -> []
      in
      { bound_f = Rational.to_float bound_value; eqs = pure @ fm })
    ~reduce:(fun (n, m) outcomes ->
      let equilibria = ref 0 and violations = ref 0 in
      let max_r1 = ref neg_infinity and max_r2 = ref neg_infinity in
      let bounds = ref Stats.Welford.empty in
      let min_slack1 = ref infinity and min_slack2 = ref infinity in
      Array.iter
        (fun o ->
          bounds := Stats.Welford.add !bounds o.bound_f;
          List.iter
            (fun e ->
              incr equilibria;
              if e.violated then incr violations;
              max_r1 := Float.max !max_r1 e.r1;
              max_r2 := Float.max !max_r2 e.r2;
              min_slack1 := Float.min !min_slack1 e.slack1;
              min_slack2 := Float.min !min_slack2 e.slack2)
            o.eqs)
        outcomes;
      {
        n;
        m;
        beliefs = Generators.belief_family_name beliefs;
        trials;
        equilibria = !equilibria;
        max_ratio1 = !max_r1;
        max_ratio2 = !max_r2;
        mean_bound1 = Stats.Welford.mean !bounds;
        min_slack1 = !min_slack1;
        min_slack2 = !min_slack2;
        violations = !violations;
      })

let table rows =
  let t =
    Stats.Table.create
      [
        "n"; "m"; "beliefs"; "trials"; "equilibria"; "max SC1/OPT1"; "max SC2/OPT2";
        "mean bound"; "min slack1"; "min slack2"; "violations";
      ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.m;
          r.beliefs;
          string_of_int r.trials;
          string_of_int r.equilibria;
          Report.flt r.max_ratio1;
          Report.flt r.max_ratio2;
          Report.flt r.mean_bound1;
          Report.flt r.min_slack1;
          Report.flt r.min_slack2;
          string_of_int r.violations;
        ])
    rows;
  t
