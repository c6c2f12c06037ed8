(** The exact distribution of the load vector under a mixed profile.

    A mixed profile [P] induces a product measure over the [m^n] pure
    realisations, but every quantity the KP social cost needs — the
    expected maximum congestion [SC(w, P)] of Section 4, and any other
    expectation of a function of the per-link loads — factors through
    the much smaller distribution of the {e load vector}
    [(load(0), …, load(m-1))].  This module computes that distribution
    exactly, by a user-by-user dynamic program:

    {ul
    {- users with equal weight and equal probability row (a {e class};
       capacities play no role — loads do not depend on them) are
       exchangeable, so a class of [n_c] users is absorbed in one step
       that enumerates its [C(n_c + m - 1, m - 1)] link-count splits
       with multinomial weights instead of its [m^{n_c}] realisations;}
    {- realisations that produce the same load vector are merged into a
       single state, with their probabilities accumulated.}}

    The DP runs on an integer lattice.  Loads are scaled by [L], the
    lcm of the weight denominators, so every scaled load is an integer
    in [[0, T]] ([T] the scaled total traffic), and a load state is
    {e one} integer key: the first [m - 1] scaled loads are its digits
    in radix [T + 1] (the last is [T] minus the rest), so a DP step
    moves the key by one addition and a merge is one table lookup.
    Each class row is held as integer numerators over its lcm
    denominator [b_c], so a state's mass is an integer and every
    probability shares the one denominator [Π_c b_c^{n_c}]; the loop
    takes no gcd.  The lattice has two lanes, chosen once before the
    first layer.  When the key space [(T + 1)^{m-1}] and the common
    denominator both fit a native int, every key, mass, product and
    merged sum does too, so each layer is a flat open-addressing table
    of unboxed ints and the loop carries no overflow check.  Otherwise
    keys and masses are {!Numeric.Bigint}s in a hash table.  The final
    layer is kept as built, on its lane — integer keys and masses, no
    rational — and expectations are taken on the lattice by
    {!expect_scaled}: the integer sum [Σ mass·f(K)] over the scaled
    loads [K], reduced once, for an integer function [f] given as data
    (a {!kernel}).  Since [f] is data, the sum's magnitude is bounded
    before the loop, and on the native lane a sum that fits runs on
    unboxed ints too.  {!expect} and {!iter} decode each state into
    rational loads at call time.  No lane ever changes a value; under
    [SELFISH_SANITIZE] every native DP and every native expectation is
    re-derived on {!Numeric.Bigint}s and must agree.

    All arithmetic is exact, so the resulting expectations are
    bit-identical to the brute-force [m^n] sum.  For exchangeable users
    (e.g. the uniform fully mixed profiles of Theorem 4.8) the state
    space is polynomial: one class of [n] users over [m] links has at
    most [C(n + m - 1, m - 1)] states — [n = 40, m = 3] is 861 states
    where the seed enumerator faced [3^40] realisations. *)

type t

(** [of_mixed ?limit g p] is the exact distribution of the load vector
    when every user draws its link independently from its row of [p].
    Does not require a KP instance — loads depend only on weights.
    [limit] bounds the number of {e distinct load states} the dynamic
    program may hold at any point (default [1_000_000]; the seed
    enumerator's limit bounded [m^n] instead, which this bound only
    reaches when every user is its own class and no loads collide).
    The DP is serial; run independent instances as [Engine] tasks to
    use more cores.
    @raise Invalid_argument when [p] is not a valid mixed profile for
    [g] or when the state space exceeds [limit]. *)
val of_mixed : ?limit:int -> Game.t -> Mixed.profile -> t

(** [links d] is the dimension of the load vectors. *)
val links : t -> int

(** [size d] is the number of distinct load vectors with positive
    probability (zero-probability realisations are never materialised). *)
val size : t -> int

(** [classes d] is the number of user classes the profile was grouped
    into — [1] for fully exchangeable users, [n] when all users are
    distinct. *)
val classes : t -> int

(** [total_probability d] is the sum of all state probabilities —
    exactly [1] by construction; exposed for tests and sanity checks. *)
val total_probability : t -> Numeric.Rational.t

(** [scale d] is [L], the lcm of the weight denominators: every load
    vector is [K / L] for an integer vector [K] of scaled loads. *)
val scale : t -> Numeric.Bigint.t

(** An integer function [f] of the scaled load vector [K], as data.
    Each reads only the first [|u|] coordinates of [K], so coordinates
    past [u] (e.g. a phantom "absent" link) are ignored.
    {ul
    {- [Max_weighted u] is [max_{ℓ < |u|} K_ℓ·u_ℓ]; [u] is not empty;}
    {- [Sum_sq_weighted u] is [Σ_{ℓ < |u|} K_ℓ²·u_ℓ].}} *)
type kernel = Max_weighted of Numeric.Bigint.t array | Sum_sq_weighted of Numeric.Bigint.t array

(** [expect_scaled d ~over f] is the exact expectation
    [Σ_K P(K)·f(K) / over] of the kernel [f] of the {e scaled} load
    vector [K] ([load_ℓ = K_ℓ / L], [L] = {!scale}).  The terms are
    summed as integer masses times [f(K)] and the sum is reduced once,
    by a single [Rational.make]; no rational is built per state.  E.g.
    [E[max_ℓ load_ℓ/c_ℓ]] is [expect_scaled d ~over:(L·C) (Max_weighted u)]
    with [1/c_ℓ = u_ℓ/C].

    The sum runs on one of two lanes, chosen once per call.  Since
    [Σ_ℓ K_ℓ = T] (the scaled total), [|f(K)| ≤ T^p·max_ℓ |u_ℓ|], with
    [p = 1] for [Max_weighted] and [2] for [Sum_sq_weighted], and the
    masses sum to the common denominator [den].  When {!of_mixed} ran
    on native ints and [den·T^p·max_ℓ |u_ℓ| ≤ max_int] (with [T] and
    [max |u|] taken as at least [1]), every term and partial sum fits a
    native int, and the loop decodes each key and sums on unboxed ints
    with no overflow check and no allocation per state.  Otherwise
    each state's [K], mass and [f(K)] are {!Numeric.Bigint}s.  The
    lanes give the same value; under [SELFISH_SANITIZE] a native sum
    is re-derived on [Bigint]s and must be equal.
    @raise Invalid_argument when [u] is longer than {!links}, or empty
    in [Max_weighted].
    @raise Division_by_zero when [over] is zero. *)
val expect_scaled : t -> over:Numeric.Bigint.t -> kernel -> Numeric.Rational.t

(** [expect d f] is the exact expectation [Σ_v P(v)·f(v)] of a function
    of the rational load vector.  Each state is decoded into a fresh
    rational vector at call time; the terms are summed as integer
    masses times [f(v)] over one running common denominator — a gcd is
    taken only when [f] returns a denominator not seen before — and the
    sum is reduced once.  Prefer {!expect_scaled} when [f] is a
    {!kernel} of the scaled loads. *)
val expect : t -> (Numeric.Rational.t array -> Numeric.Rational.t) -> Numeric.Rational.t

(** [iter d f] calls [f loads prob] on every state, in an unspecified
    (but deterministic) order.  [loads] and [prob] are built from the
    state's key and integer mass on each call, so a caller that needs
    only expectations should use {!expect_scaled} or {!expect}. *)
val iter : t -> (Numeric.Rational.t array -> Numeric.Rational.t -> unit) -> unit
