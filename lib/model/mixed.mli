(** Mixed strategy profiles: one probability distribution over links per
    user, with exact expected latencies (Section 2).

    For a profile [P], the expected traffic on link [ℓ] is
    [W^ℓ = Σ_i p^ℓ_i w_i] and user [i]'s expected latency on [ℓ] is

    {v λ^ℓ_{i,b_i}(P) = ((1 - p^ℓ_i)·w_i + W^ℓ) / c^ℓ_i v}

    [P] is a Nash equilibrium when every user puts positive probability
    only on links attaining its minimum expected latency. *)

type profile = Numeric.Qvec.t array
(** [profile.(i)] is user [i]'s distribution over the [m] links. *)

(** [validate g p] checks that [p] is an [n × m] stack of exact
    probability distributions. @raise Invalid_argument otherwise. *)
val validate : Game.t -> profile -> unit

(** [of_pure g sigma] embeds a pure profile as a 0/1 mixed profile. *)
val of_pure : Game.t -> Pure.profile -> profile

(** [uniform g] assigns every user the equiprobable distribution. *)
val uniform : Game.t -> profile

(** Cached evaluator over one mixed profile — the mixed-layer analogue
    of {!View}.  [make]/[unchecked] materialise the expected-traffic
    vector [W] once in O(n·m); against it every latency is O(1), a
    user's minimum latency is O(m) and a full Nash check is O(n·m).
    The one-shot functions below each build a transient evaluator, so
    build one per profile whenever more than one query is made. *)
module Eval : sig
  type t

  (** [make g p] validates [p] like {!validate} and caches its
      expected traffics.  The rows are copied.
      @raise Invalid_argument on a malformed profile. *)
  val make : Game.t -> profile -> t

  (** [unchecked g p] is {!make} minus the per-row distribution check:
      only dimensions are verified.  Needed to evaluate fully mixed
      {e candidates} (Lemma 4.9 comparators) whose rows may leave
      [0, 1] when no FMNE exists; all formulas remain well-defined. *)
  val unchecked : Game.t -> profile -> t

  (** [expected_traffic e l] is [W^l]. O(1). *)
  val expected_traffic : t -> int -> Numeric.Rational.t

  (** [latency_on_link e i l] is [λ^l_{i,b_i}(P)]. O(1). *)
  val latency_on_link : t -> int -> int -> Numeric.Rational.t

  (** [min_latency e i] is [λ_{i,b_i}(P)]. O(m). *)
  val min_latency : t -> int -> Numeric.Rational.t

  (** [is_nash e] is the exact Nash predicate of {!Mixed.is_nash}.
      O(n·m). *)
  val is_nash : t -> bool

  (** [social_cost1 e] is [SC1]. O(n·m). *)
  val social_cost1 : t -> Numeric.Rational.t

  (** [social_cost2 e] is [SC2]. O(n·m). *)
  val social_cost2 : t -> Numeric.Rational.t
end

(** [expected_traffic g p l] is [W^l].  Like every one-shot below, it
    rides a transient {!Eval} (O(n·m)), which checks dimensions and
    load-linearity but not the rows' distributions.
    @raise Invalid_argument on a non-load-linear game or a profile of
    the wrong shape. *)
val expected_traffic : Game.t -> profile -> int -> Numeric.Rational.t

(** [expected_traffics g p] is the vector [W]. *)
val expected_traffics : Game.t -> profile -> Numeric.Rational.t array

(** [latency_on_link g p i l] is [λ^l_{i,b_i}(P)]. *)
val latency_on_link : Game.t -> profile -> int -> int -> Numeric.Rational.t

(** [min_latency g p i] is [λ_{i,b_i}(P) = min_l λ^l_{i,b_i}(P)].
    One-shot convenience over a transient {!Eval}.
    @deprecated in per-profile loops: build one {!Eval.t} and query it. *)
val min_latency : Game.t -> profile -> int -> Numeric.Rational.t

(** [support p i] is the set of links user [i] plays with positive
    probability. *)
val support : profile -> int -> int list

(** [is_fully_mixed p] holds when every probability is strictly
    positive. *)
val is_fully_mixed : profile -> bool

(** [is_nash g p] holds when, for every user [i] and link [l]:
    [p^l_i > 0] implies [λ^l_i = λ_i], and [p^l_i = 0] implies
    [λ^l_i >= λ_i] (exact comparisons).  O(n·m) via a transient
    {!Eval}. *)
val is_nash : Game.t -> profile -> bool

(** [social_cost1 g p] is [SC1 = Σ_i λ_{i,b_i}(P)].
    @deprecated with {!social_cost2} on the same profile: build one
    {!Eval.t} and take both costs off it. *)
val social_cost1 : Game.t -> profile -> Numeric.Rational.t

(** [social_cost2 g p] is [SC2 = max_i λ_{i,b_i}(P)].
    @deprecated with {!social_cost1} on the same profile: build one
    {!Eval.t} and take both costs off it. *)
val social_cost2 : Game.t -> profile -> Numeric.Rational.t

val equal : profile -> profile -> bool
