(** User beliefs: probability distributions over a state space.

    The paper's central quantity is the {e effective capacity}

    {v c^ℓ_i = 1 / Σ_φ b_i(φ) / c^ℓ_φ v}

    — the belief-weighted harmonic capacity of link [ℓ] under belief
    [b_i].  Every expected latency in the game factors through it
    (Section 2), which reduces the uncertain game to a parallel-links
    game with user-specific capacities. *)

type t

(** [make space probs] pairs a state space with an exact distribution
    over it. @raise Invalid_argument when [probs] has the wrong
    dimension or is not a probability distribution. *)
val make : State.space -> Numeric.Qvec.t -> t

(** [point space k] is certainty of state [k] (a Dirac belief); with a
    shared [point] belief for all users the model degenerates to the
    KP-model. @raise Invalid_argument when [k] is out of range. *)
val point : State.space -> int -> t

(** [certain state] is certainty of [state] over the singleton space. *)
val certain : State.t -> t

(** [uniform space] spreads probability equally over all states. *)
val uniform : State.space -> t

(** [mixture a b ~weight] is [(1-weight)·a + weight·b] over a shared
    space. @raise Invalid_argument when the beliefs live on different
    spaces (compared structurally) or [weight ∉ [0, 1]]. *)
val mixture : t -> t -> weight:Numeric.Rational.t -> t

(** [from_counts space counts ~smoothing] is the empirical belief of a
    user who observed state [k] [counts.(k)] times, with additive
    (Laplace) smoothing: probability [(counts.(k) + smoothing) /
    (total + states·smoothing)].  With [smoothing = 0] some states may
    get probability zero (then [total] must be positive).
    @raise Invalid_argument on negative counts or smoothing, a count
    vector of the wrong length, or an all-zero unsmoothed vector. *)
val from_counts : State.space -> int array -> smoothing:Numeric.Rational.t -> t

(** [condition b ~event] is the Bayesian posterior of [b] given that the
    realised state satisfies [event] (a predicate on state indices):
    probabilities outside the event are zeroed and the rest renormalised
    exactly.  Models a user receiving a coarse signal about the network
    (e.g. "a failure occurred").
    @raise Invalid_argument when the event has prior probability zero. *)
val condition : t -> event:(int -> bool) -> t

val space : t -> State.space
val probs : t -> Numeric.Qvec.t

(** [prob b k] is [b(φ_k)]. *)
val prob : t -> int -> Numeric.Rational.t

(** [links b] is the number of links of the underlying space. *)
val links : t -> int

(** [effective_capacity b l] is [c^l] under belief [b]. *)
val effective_capacity : t -> int -> Numeric.Rational.t

(** [effective_capacities b] is the vector of all [m] effective
    capacities. *)
val effective_capacities : t -> Numeric.Qvec.t

(** [is_uniform_link_view b] holds when the belief induces equal
    effective capacity on every link — the "uniform user beliefs" model
    of Section 3.1. *)
val is_uniform_link_view : t -> bool

(** [expected_inverse_capacity b l] is [Σ_φ b(φ)/c^l_φ], the exact
    expected latency per unit load on link [l]. *)
val expected_inverse_capacity : t -> int -> Numeric.Rational.t

val equal : t -> t -> bool
