(** Pluggable per-user uncertainty backends.

    The paper's model is one point in a family: a user facing an
    uncertain network evaluates each link through some summary of its
    ignorance.  This module makes that summary a first-class value with
    three backends sharing one contract:

    {ul
    {- [Bayesian] — the paper's semantics.  The user holds a belief
       [b] over network states and prices link [ℓ] at its expected
       latency per unit load [Σ_φ b(φ)/c^ℓ_φ] — equivalently the
       {e effective capacity} [ĉ^ℓ = 1/Σ_φ b(φ)/c^ℓ_φ] ({!Belief}).}
    {- [Participation] — Bernoulli demand uncertainty in the style of
       Cominetti–Scarsini–Schröder–Stier-Moses (arXiv:1903.03309).
       Capacities are priced through a belief as above, but every user
       is only {e present} with probability [p] (common knowledge), so
       user [i] expects link [ℓ] to carry its own full weight plus the
       presence-discounted weights of the other users routed there.}
    {- [Strict] — distance-based non-probabilistic uncertainty in the
       style of Meir–Parkes (arXiv:1411.4943).  The user knows only a
       capacity interval [⟨lo^ℓ, hi^ℓ⟩] per link and best-responds
       against the adversarial worst case, i.e. prices link [ℓ] at
       [1/lo^ℓ] per unit load.  No probabilities anywhere.}}

    Every backend exposes the same three quantities, and {!Game} is
    built from them alone:

    {ul
    {- an exact {e expected} latency per unit load on each link, whose
       inverse is the effective-capacity-style link view
       ({!eval_capacity}) where the existing parallel-links machinery
       lives;}
    {- an exact {e worst-case} latency per unit load
       ({!worst_case_inverse_capacity}) — over the belief's support for
       the probabilistic backends, over the interval for [Strict];}
    {- a {e load factor} ({!load_factor}): the fraction of the user's
       weight that {e other} users expect to meet on its chosen link
       ([1] except for [Participation], where it is the presence
       probability).}}

    A backend is {e load-linear} when its load factor is [1]: every
    latency is then exactly [load/ĉ], the form all of the paper's
    algorithms (and the packed native-int lanes) assume.  [Bayesian]
    and [Strict] are always load-linear; [Participation] is iff
    [p = 1]. *)

type kind = Bayesian | Participation | Strict

type t

(** [bayesian b] is the paper's belief-weighted backend. *)
val bayesian : Belief.t -> t

(** [participation ~presence b] prices capacities through [b] and is
    present with probability [presence].
    @raise Invalid_argument when [presence ∉ (0, 1]]. *)
val participation : presence:Numeric.Rational.t -> Belief.t -> t

(** [strict ~lo ~hi] is worst-case (adversarial) uncertainty over the
    per-link capacity intervals [⟨lo^ℓ, hi^ℓ⟩].
    @raise Invalid_argument when [lo] and [hi] disagree on the link
    count or [lo^ℓ > hi^ℓ] on some link. *)
val strict : lo:State.t -> hi:State.t -> t

(** [strict_of_intervals ivs] builds {!strict} from per-link
    [(lo, hi)] pairs. *)
val strict_of_intervals : (Numeric.Rational.t * Numeric.Rational.t) array -> t

val kind : t -> kind
val kind_name : kind -> string
val equal_kind : kind -> kind -> bool

(** [links u] is the number of links the backend prices. *)
val links : t -> int

(** [eval_capacity u l] is the inverse of the backend's exact expected
    latency per unit load on link [l]: the effective-capacity-style link
    view of the backend. *)
val eval_capacity : t -> int -> Numeric.Rational.t

(** [eval_capacities u] is the vector of all [m] evaluation
    capacities. *)
val eval_capacities : t -> Numeric.Qvec.t

(** [worst_case_inverse_capacity u l] is the exact worst-case latency
    per unit load on link [l]: the maximum of [1/c^l] over the belief's
    support ([Bayesian]/[Participation]) or over the interval
    ([Strict], where it is [1/lo^l]). *)
val worst_case_inverse_capacity : t -> int -> Numeric.Rational.t

(** [load_factor u] is the fraction of this user's weight that other
    users expect to meet: the presence probability for
    [Participation], [1] otherwise. *)
val load_factor : t -> Numeric.Rational.t

(** [presence u] is {!load_factor} under its demand-model name. *)
val presence : t -> Numeric.Rational.t

(** [is_load_linear u] holds when {!load_factor} is [1] — every
    latency of the user is then exactly [load/ĉ]. *)
val is_load_linear : t -> bool

(** [belief u] is the belief through which the backend prices
    capacities: the user's belief for [Bayesian] and [Participation],
    and certainty of the worst-case state [lo] for [Strict] (whose
    decisions are exactly those of that Dirac belief). *)
val belief : t -> Belief.t

(** [strict_bounds u] is [Some (lo, hi)] for the [Strict] backend. *)
val strict_bounds : t -> (State.t * State.t) option

(** [equal a b] holds when [a] and [b] are the same backend with
    structurally equal data.  Backends of different kinds are never
    equal, even when observationally equivalent (e.g. a degenerate
    interval versus the matching point belief). *)
val equal : t -> t -> bool
