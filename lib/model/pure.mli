(** Pure strategy profiles and their exact latencies.

    A pure profile assigns each user one link.  All functions accept an
    optional [?initial] per-link traffic vector [t] (defaulting to zero)
    because the paper's algorithms for two links and for uniform beliefs
    solve the more general problem with initial link loads
    (Definition 3.1, Algorithm A_uniform).

    The multi-scan predicates below ({!best_response},
    {!improving_moves}, {!is_nash}, {!defectors}, {!social_cost1},
    {!social_cost2}) delegate to a transient {!View} that materialises
    the loads once per call.  They are convenient for one-shot queries;
    code that evaluates many single-user deviations of the same profile
    — dynamics, sweeps, graph traversals — should hold a {!View.t}
    directly and use its O(1) [move]/[undo] instead. *)

type profile = int array
(** [profile.(i)] is the link chosen by user [i], in [0, m). *)

(** [validate g ?initial p] checks dimensions and ranges.
    @raise Invalid_argument when [p] or [initial] is malformed. *)
val validate : Game.t -> ?initial:Numeric.Rational.t array -> profile -> unit

(** [loads g ?initial p] is the per-link total traffic as priced by
    other users: initial traffic plus the {!Game.contribution}s of the
    users assigned there (the plain weights except under Bernoulli
    participation). *)
val loads : Game.t -> ?initial:Numeric.Rational.t array -> profile -> Numeric.Rational.t array

(** [latency g ?initial p i] is user [i]'s expected latency
    [λ_{i,b_i}(σ)]: the load of its chosen link over its effective
    capacity for that link. *)
val latency : Game.t -> ?initial:Numeric.Rational.t array -> profile -> int -> Numeric.Rational.t

(** [latency_in_state g p i k] is the latency user [i] would experience
    if state [k] of its own belief space were realised, [λ_{i,φ_k}(σ)].
    Ignores initial traffic (the paper defines it for plain games). *)
val latency_in_state : Game.t -> profile -> int -> int -> Numeric.Rational.t

(** [expected_latency_via_states g p i] recomputes [λ_{i,b_i}(σ)] by
    direct expectation over the belief; it must always equal
    {!latency} — exercised by property tests. *)
val expected_latency_via_states : Game.t -> profile -> int -> Numeric.Rational.t

(** [latency_on_link g ?initial p i l] is the expected latency user [i]
    would experience after unilaterally moving to link [l] (its current
    latency when [l] is its current link). *)
val latency_on_link :
  Game.t -> ?initial:Numeric.Rational.t array -> profile -> int -> int -> Numeric.Rational.t

(** [best_response g ?initial p i] is the lowest-index link minimising
    user [i]'s post-move latency, paired with that latency.
    @deprecated in per-step loops: use {!View.best_response_for} on a
    long-lived view. *)
val best_response :
  Game.t -> ?initial:Numeric.Rational.t array -> profile -> int -> int * Numeric.Rational.t

(** [improving_moves g ?initial p i] lists the links that would
    strictly lower user [i]'s latency.
    @deprecated in per-step loops: use {!View.improving_moves}. *)
val improving_moves :
  Game.t -> ?initial:Numeric.Rational.t array -> profile -> int -> int list

(** [is_nash g ?initial p] holds when no user can strictly improve by
    unilaterally switching links (exact comparison).  O(n·m) via a
    transient view.
    @deprecated in per-step loops: use {!View.is_nash}. *)
val is_nash : Game.t -> ?initial:Numeric.Rational.t array -> profile -> bool

(** [defectors g ?initial p] is the list of users violating the Nash
    condition in [p].
    @deprecated in per-step loops: use {!View.defectors}. *)
val defectors : Game.t -> ?initial:Numeric.Rational.t array -> profile -> int list

(** [social_cost1 g ?initial p] is [SC1 = Σ_i λ_{i,b_i}(σ)]. *)
val social_cost1 : Game.t -> ?initial:Numeric.Rational.t array -> profile -> Numeric.Rational.t

(** [social_cost2 g ?initial p] is [SC2 = max_i λ_{i,b_i}(σ)]. *)
val social_cost2 : Game.t -> ?initial:Numeric.Rational.t array -> profile -> Numeric.Rational.t

val equal : profile -> profile -> bool
