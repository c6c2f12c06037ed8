(** E18 — the price of ignorance across uncertainty backends.

    The {!Model.Uncertainty} interface prices one network three ways:
    through the true capacities (informed Bayesian point beliefs),
    through wrong beliefs (misinformed Bayesian), and through the
    adversarial hull of the state space (robust [Strict]).  This
    experiment plays all three populations — plus a Bernoulli
    population that knows the truth but faces random demand
    ([Participation] with presence [p]) — on shared sampled instances
    and prices every equilibrium under the {e true} capacities, so the
    rows compare exactly what each kind of ignorance costs.

    The cost metric is the weighted social cost
    [SCw(σ) = Σ_ℓ load_ℓ(σ)² / c*_ℓ] (every user pays its weight times
    its true latency); informed, misinformed and robust equilibria are
    reported as the exact ratio [SCw(σ)/OPTw] against the optimal
    assignment under truth, so every ratio is [≥ 1].  The Bernoulli
    column is the {e demand gain}
    [E[SCw(σ_bernoulli)] / E[SCw(σ_informed)]], both expectations over
    the same Bernoulli presence draws via the exact load-vector
    distribution ({!Model.Load_dist} over a helper game with a phantom
    "absent" link) — at [p = 1] the two profiles coincide and the gain
    is exactly [1]. *)

type row = {
  presence : Numeric.Rational.t;  (** Bernoulli presence probability *)
  trials : int;
  informed_ratio : float;  (** mean SCw(informed)/OPTw, ≥ 1 *)
  misinformed_ratio : float;  (** mean SCw(misinformed)/OPTw, ≥ 1 *)
  robust_ratio : float;  (** mean SCw(robust)/OPTw, ≥ 1 *)
  demand_gain : float;
      (** mean E[SCw(bernoulli)]/E[SCw(informed)] under random demand;
          exactly [1] at [presence = 1] *)
  expected_congestion : float;
      (** mean E[max_ℓ load_ℓ/c*_ℓ] of the Bernoulli equilibrium under
          random demand *)
  equilibrium_failures : int;  (** dynamics not converged (expect 0) *)
}

(** [run ~seed ~n ~m ~states ~presences ~trials ()] sweeps Bernoulli
    presence levels; each trial draws a fresh state space, true state,
    weights, misinformed beliefs and starting profile, shared by all
    four populations.  Trials run through {!Engine.sweep}. *)
val run :
  seed:int ->
  n:int ->
  m:int ->
  states:int ->
  presences:Numeric.Rational.t list ->
  trials:int ->
  unit ->
  row list

val table : row list -> Stats.Table.t
