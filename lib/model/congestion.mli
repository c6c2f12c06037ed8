(** The classical KP social cost: expected maximum congestion.

    Section 2 of the paper explains that with subjective beliefs "there
    is no objective value for the latency of a link", forcing the
    departure from the standard social cost of [13, 16] — the expected
    maximum congestion.  On the KP special case (point beliefs shared by
    all users) the objective latency exists again, and this module
    implements the classical definition exactly, which lets the test
    suite connect the paper's SC1/SC2 to the older literature: e.g. the
    fully-mixed-NE conjecture of [7]/[14] can be checked on KP instances
    produced by this library.

    All functions below require [Game.is_kp g] and use the shared
    capacity vector. *)

(** [max_relative_load ~loads ~caps] is [max_ℓ loads.(ℓ)/caps.(ℓ)] over
    the links [ℓ < Array.length caps] ([loads] may carry extra
    coordinates, e.g. a phantom "absent" link).  The argmax is found by
    {!Numeric.Rational.compare_div}, so the scan builds no quotient and
    the result costs one division.  Needs no KP instance.
    @raise Invalid_argument when [caps] is empty or longer than [loads]. *)
val max_relative_load :
  loads:Numeric.Rational.t array -> caps:Numeric.Rational.t array -> Numeric.Rational.t

(** [expected_max_relative_load d ~caps] is the exact expectation of
    {!max_relative_load} over the load distribution [d], with the same
    rule for coordinates past [caps] (ignored) and the same contract.
    It runs on {!Load_dist}'s integer lattice: with [load_ℓ = K_ℓ/L]
    and the reciprocal capacities as integers [u_ℓ] over one
    denominator [C] ([1/c_ℓ = u_ℓ/C]), each state contributes the
    integer [max_ℓ K_ℓ·u_ℓ] and the sum is divided by [L·C] once.
    Needs no KP instance.
    @raise Invalid_argument when [caps] is empty or longer than
    [Load_dist.links d]. *)
val expected_max_relative_load : Load_dist.t -> caps:Numeric.Rational.t array -> Numeric.Rational.t

(** [max_congestion g sigma] is [max_ℓ load(ℓ)/c^ℓ] for a pure profile.
    @raise Invalid_argument unless [g] is a KP instance. *)
val max_congestion : Game.t -> Pure.profile -> Numeric.Rational.t

(** [expected_max_congestion g p] is the exact expectation of
    {!max_congestion} over the product distribution of the mixed
    profile [p] — the classical [SC(w, P)] of Section 4.  Computed by
    {!expected_max_relative_load} over the {!Load_dist} dynamic
    program's distinct load vectors, not by enumerating the [m^n]
    realisations, so exchangeable users (equal weight, equal row) cost
    [C(n_c + m - 1, m - 1)] states per class: uniform fully mixed
    profiles far beyond the seed enumerator's [m^n <= 1_000_000] range
    are exact and fast.
    @raise Invalid_argument unless [g] is a KP instance, or when the
    load-state space exceeds {!Load_dist.of_mixed}'s default limit. *)
val expected_max_congestion : Game.t -> Mixed.profile -> Numeric.Rational.t

(** [optimum g] is the makespan optimum: the minimum over pure profiles
    of {!max_congestion}, with an argmin (the classical OPT of [13]):
    the first minimum in odometer order, found by {!Social.minimise}
    (the maximum relative load only grows as users are placed).
    @raise Invalid_argument unless [g] is a KP instance or when [m^n]
    exceeds the fixed budget [1_000_000]. *)
val optimum : Game.t -> Numeric.Rational.t * Pure.profile
