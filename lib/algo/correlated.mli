open Model

(** Correlated equilibria of the uncertainty game (extension).

    A correlated equilibrium (Aumann) is a distribution [x] over pure
    profiles such that no user, told its own recommended link, gains by
    deviating.  In the belief model each user evaluates deviations under
    its own belief, giving the {e subjective} correlated-equilibrium
    polytope:

    {v Σ_{σ : σ_i = a} x_σ · (λ_{i,b_i}(σ) − λ_{i,b_i}(σ[i→b])) ≤ 0 v}

    for every user [i] and link pair [a ≠ b], plus [x ≥ 0, Σx = 1].
    Every Nash equilibrium (pure as a point mass, mixed as a product)
    lies in this polytope — property-tested — so it is never empty, and
    optimising a linear social cost over it with the exact simplex
    solver ({!Numeric.Simplex}) answers how much a mediator could help
    or hurt: the {e mediation value} experiment E20. *)

type result = {
  value : Numeric.Rational.t;  (** optimal SC1 over the CE polytope *)
  distribution : (Pure.profile * Numeric.Rational.t) list;
      (** the optimising distribution's support *)
}

(** [is_correlated_equilibrium g x] checks the CE inequalities exactly
    for a distribution given as (profile, probability) pairs (absent
    profiles have probability 0).
    @raise Invalid_argument when probabilities are negative or do not
    sum to 1, or a profile is malformed. *)
val is_correlated_equilibrium : Game.t -> (Pure.profile * Numeric.Rational.t) list -> bool

(** [best_social_cost g] minimises [SC1 = Σ_σ x_σ Σ_i λ_{i,b_i}(σ)]
    over the CE polytope.
    @raise Invalid_argument when [m^n] exceeds the fixed budget
    [4_096] (the LP has one variable per profile). *)
val best_social_cost : Game.t -> result

(** [worst_social_cost g] maximises the same objective (the polytope is
    bounded, so this always exists). *)
val worst_social_cost : Game.t -> result

(** [of_mixed g p] is the product distribution of a mixed profile, as a
    support list (for feeding Nash equilibria to the checker). *)
val of_mixed : Game.t -> Mixed.profile -> (Pure.profile * Numeric.Rational.t) list
