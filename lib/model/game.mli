(** The routing game [G = (n, m, w, B)] (Section 2).

    [n] users with positive traffics [w] route on [m] parallel links;
    user [i]'s belief [b_i] over the network's state space induces the
    effective capacities [c^ℓ_i] through which all of its expected
    latencies are computed.  The game caches the full [n × m] effective
    capacity matrix at construction.

    Two belief-facing constructors are provided: {!make} from explicit
    beliefs (the generative form), and {!of_capacities} from a
    user-specific capacity matrix directly (the reduced form; each row
    is realised as a Dirac belief over a private singleton state space,
    so the two forms agree on all quantities).

    More generally, {!make_uncertain} accepts any {!Uncertainty}
    backend per user; {!make} is exactly [make_uncertain] over
    {!Uncertainty.bayesian} wrappers.  Per-user and class games
    ({!Cgame}) are built by the same constructor.  It derives each
    user's {e contribution} [t_i], the traffic other users meet (its
    weight discounted by {!Uncertainty.presence}), and {e bias}
    [β_i = w_i − t_i], its own-latency surcharge: user [i]'s latency on
    its link [ℓ] is [(L_ℓ + β_i)/c^ℓ_i] where [L_ℓ] sums contributions.
    With every bias zero (the {e load-linear} case) this is the paper's
    [load/ĉ] form. *)

type t

(** [make ~weights ~beliefs] validates and builds a game.
    @raise Invalid_argument when there are no users, any weight is
    non-positive, beliefs disagree on the number of links, or there are
    fewer than two links. *)
val make : weights:Numeric.Rational.t array -> beliefs:Belief.t array -> t

(** [make_uncertain ~weights ~uncertainty] builds a game from per-user
    uncertainty backends ({!Uncertainty}).  Same validation as {!make};
    with all-Bayesian backends the result is bit-identical to
    [make ~weights ~beliefs]. *)
val make_uncertain :
  weights:Numeric.Rational.t array -> uncertainty:Uncertainty.t array -> t

(** [of_capacities ~weights caps] builds the reduced form directly from
    [caps.(i).(l) = c^l_i]. @raise Invalid_argument on dimension or
    positivity violations. *)
val of_capacities : weights:Numeric.Rational.t array -> Numeric.Rational.t array array -> t

(** [kp ~weights ~capacities] is the classical KP-model instance: every
    user is certain of the same capacity vector. *)
val kp : weights:Numeric.Rational.t array -> capacities:Numeric.Rational.t array -> t

val users : t -> int
val links : t -> int

(** [weight g i] is [w_i]. *)
val weight : t -> int -> Numeric.Rational.t

val weights : t -> Numeric.Rational.t array

(** [total_traffic g] is [Σ_i w_i]. *)
val total_traffic : t -> Numeric.Rational.t

(** [belief g i] is the belief through which user [i] prices
    capacities: its actual belief for the Bayesian and participation
    backends, and the decision-equivalent worst-case Dirac belief for
    the strict backend ({!Uncertainty.belief}). *)
val belief : t -> int -> Belief.t

(** [uncertainty g i] is user [i]'s uncertainty backend. *)
val uncertainty : t -> int -> Uncertainty.t

(** [contribution g i] is [t_i = presence(u_i)·w_i], the traffic
    link loads carry for user [i]; equal (physically) to [w_i] for
    load-linear users. *)
val contribution : t -> int -> Numeric.Rational.t

(** [bias g i] is [β_i = w_i − t_i], added to user [i]'s own expected
    latency on its chosen link; zero for load-linear users. *)
val bias : t -> int -> Numeric.Rational.t

(** [is_load_linear g] holds when every user's latency has the plain
    [load/ĉ] form (all biases zero) — always true for games built with
    {!make}/{!of_capacities}/{!kp}.  The packed native-int lane and the
    closed-form/mixed-equilibrium algorithms require it. *)
val is_load_linear : t -> bool

(** [capacity g i l] is the effective capacity [c^l_i]. *)
val capacity : t -> int -> int -> Numeric.Rational.t

(** [capacity_row g i] is user [i]'s effective capacity vector. *)
val capacity_row : t -> int -> Numeric.Rational.t array

(** [capacity_matrix g] is the full [n × m] matrix (fresh copy). *)
val capacity_matrix : t -> Numeric.Rational.t array array

(** [packed_tables g] is the game's native-int packing ({!Packing}),
    computed once at construction; [None] when any component exceeds
    the native range or the game is not load-linear (the packed
    predicates assume [load/ĉ] latencies), in which case views stay on
    the exact lane. *)
val packed_tables : t -> Packing.t option

(** [rows g] is the game's per-user tables, one row per user, sharing
    the game's own arrays: read-only.  The exact lane of a [View] reads
    them. *)
val rows : t -> Packing.rows

(** [is_kp g] holds when all users share the same effective capacity
    vector — the game is (observationally) a KP-model instance. *)
val is_kp : t -> bool

(** [has_uniform_beliefs g] holds when every user sees all links with
    equal effective capacity (the "uniform user beliefs" model). *)
val has_uniform_beliefs : t -> bool

(** [is_symmetric g] holds when all user weights are equal. *)
val is_symmetric : t -> bool
