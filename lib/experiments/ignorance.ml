open Model
open Numeric

type row = {
  presence : Rational.t;
  trials : int;
  informed_ratio : float;
  misinformed_ratio : float;
  robust_ratio : float;
  demand_gain : float;
  expected_congestion : float;
  equilibrium_failures : int;
}

(* SCw(σ) = Σ_ℓ load_ℓ² / c*_ℓ: every user pays its weight times its
   true latency load/c*.  Coordinates of [loads] past the real links
   (the phantom "absent" link below) are ignored. *)
let scw_of_loads ~true_caps loads =
  let acc = ref Rational.zero in
  Array.iteri
    (fun l c -> acc := Rational.add !acc (Rational.div (Rational.mul loads.(l) loads.(l)) c))
    true_caps;
  !acc

let scw ~weights ~true_caps sigma =
  let loads = Array.make (Array.length true_caps) Rational.zero in
  Array.iteri (fun i l -> loads.(l) <- Rational.add loads.(l) weights.(i)) sigma;
  scw_of_loads ~true_caps loads

(* The coordinator's optimum under the true capacities.  [g] is the
   informed game, whose loads carry the plain weights; SCw only grows
   as users are placed, so [Social.minimise] may prune. *)
let opt_scw g ~true_caps =
  fst
    (Social.minimise ~who:"Ignorance.opt_scw" ~budget:Social.budget g (fun loads _ _ ->
         scw_of_loads ~true_caps loads))

(* The exact load-vector distribution when user [i] is present with
   probability [p] on its equilibrium link: a mixed profile of a helper
   game with one extra phantom "absent" link (capacities are irrelevant
   — loads depend only on weights), row [i] putting [p] on [σ_i] and
   [1-p] on the phantom. *)
let demand_dist ~weights ~presence ~m sigma =
  let n = Array.length weights in
  let phantom_belief = Belief.certain (State.make (Array.make (m + 1) Rational.one)) in
  let helper = Game.make ~weights ~beliefs:(Array.make n phantom_belief) in
  let q = Rational.sub Rational.one presence in
  let rows =
    Array.init n (fun i ->
        let row = Array.make (m + 1) Rational.zero in
        row.(sigma.(i)) <- presence;
        row.(m) <- Rational.add row.(m) q;
        row)
  in
  Load_dist.of_mixed helper rows

(* E[SCw] on the lattice: with load_l = K_l/L and 1/c*_l = u_l/C (the
   reciprocal capacities over one denominator), SCw is
   Σ_l K_l²·u_l / (L²·C), an integer sum per state; the phantom
   coordinate is ignored. *)
let expected_scw d ~true_caps =
  let inv = Packing.lift (Array.map Rational.inv true_caps) in
  let scale = Load_dist.scale d in
  Load_dist.expect_scaled d
    ~over:(Bigint.mul (Bigint.mul scale scale) inv.den)
    (Load_dist.Sum_sq_weighted inv.nums)

type trial = {
  t_informed : Rational.t;
  t_misinformed : Rational.t;
  t_robust : Rational.t;
  t_gain : Rational.t;
  t_congestion : Rational.t;
}

let run ~seed ~n ~m ~states ~presences ~trials () =
  Engine.sweep ~seed ~cells:presences ~trials
    ~task:(fun presence rng _trial ->
      (* Draw every random input first, in a fixed order, so all four
         populations share one instance and one starting profile. *)
      let space = Generators.state_space rng ~m ~states ~cap_bound:6 in
      let truth = State.state space (Prng.Rng.int rng states) in
      let true_caps = State.capacities truth in
      let weights = Array.init n (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 5)) in
      let noisy =
        Array.init n (fun _ ->
            Belief.make space (Prng.Rng.positive_simplex rng ~dim:states ~grain:(states + 3)))
      in
      let start = Array.init n (fun _ -> Prng.Rng.int rng m) in
      (* The robust population knows only the hull of the state space:
         per-link intervals from the least to the largest capacity any
         state allows — the truth always lies inside. *)
      let hull =
        Array.init m (fun l ->
            let lo = ref (State.capacity (State.state space 0) l) in
            let hi = ref !lo in
            for k = 1 to states - 1 do
              let c = State.capacity (State.state space k) l in
              lo := Rational.min !lo c;
              hi := Rational.max !hi c
            done;
            (!lo, !hi))
      in
      let budget = 64 * n * m * (n + m) in
      let solve g =
        let o = Algo.Best_response.converge g ~max_steps:budget start in
        if o.converged then Some o.profile else None
      in
      let informed_g = Game.make ~weights ~beliefs:(Array.make n (Belief.certain truth)) in
      let misinformed_g = Game.make ~weights ~beliefs:noisy in
      let robust_g =
        Game.make_uncertain ~weights
          ~uncertainty:(Array.init n (fun _ -> Uncertainty.strict_of_intervals hull))
      in
      let bernoulli_g =
        Game.make_uncertain ~weights
          ~uncertainty:
            (Array.init n (fun _ -> Uncertainty.participation ~presence (Belief.certain truth)))
      in
      match (solve informed_g, solve misinformed_g, solve robust_g, solve bernoulli_g) with
      | Some s_inf, Some s_mis, Some s_rob, Some s_ber ->
        let opt = opt_scw informed_g ~true_caps in
        let ratio sigma = Rational.div (scw ~weights ~true_caps sigma) opt in
        let d_ber = demand_dist ~weights ~presence ~m s_ber in
        let d_inf = demand_dist ~weights ~presence ~m s_inf in
        Some
          {
            t_informed = ratio s_inf;
            t_misinformed = ratio s_mis;
            t_robust = ratio s_rob;
            t_gain =
              Rational.div (expected_scw d_ber ~true_caps) (expected_scw d_inf ~true_caps);
            t_congestion = Congestion.expected_max_relative_load d_ber ~caps:true_caps;
          }
      | _ -> None)
    ~reduce:(fun presence outcomes ->
      let informed = ref Stats.Welford.empty in
      let misinformed = ref Stats.Welford.empty in
      let robust = ref Stats.Welford.empty in
      let gain = ref Stats.Welford.empty in
      let congestion = ref Stats.Welford.empty in
      let failures = ref 0 in
      let add acc q = acc := Stats.Welford.add !acc (Rational.to_float q) in
      Array.iter
        (function
          | Some t ->
            add informed t.t_informed;
            add misinformed t.t_misinformed;
            add robust t.t_robust;
            add gain t.t_gain;
            add congestion t.t_congestion
          | None -> incr failures)
        outcomes;
      let mean acc = if Stats.Welford.count !acc = 0 then Float.nan else Stats.Welford.mean !acc in
      {
        presence;
        trials;
        informed_ratio = mean informed;
        misinformed_ratio = mean misinformed;
        robust_ratio = mean robust;
        demand_gain = mean gain;
        expected_congestion = mean congestion;
        equilibrium_failures = !failures;
      })

let table rows =
  let t =
    Stats.Table.create
      [
        "presence p"; "trials"; "informed SCw/OPTw"; "misinformed"; "robust (strict)";
        "demand gain"; "E[max congestion]"; "BR failures";
      ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          Rational.to_string r.presence;
          string_of_int r.trials;
          Report.flt r.informed_ratio;
          Report.flt r.misinformed_ratio;
          Report.flt r.robust_ratio;
          Report.flt r.demand_gain;
          Report.flt r.expected_congestion;
          string_of_int r.equilibrium_failures;
        ])
    rows;
  t
