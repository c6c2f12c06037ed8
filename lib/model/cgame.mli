(** Class-compressed games: the primary representation for large
    populations.

    Everything symmetric in the model depends only on how many users
    share a (weight, belief) profile — the same exchangeability that
    {!Load_dist} exploits inside the mixed DP.  A [Cgame.t] stores
    [k] {e classes}, each with a user count (up to [10^6] and beyond),
    one weight and one belief, instead of [n] individual users, so the
    class-aware consumers ({!Cview}, [Algo.Cbr], [Serve.Repair]) run
    in poly(k, m) with no dependence on [n].  A per-user {!Game.t} is
    the same record with every count 1, built by the same constructor.

    A {e class profile} assigns per-class user counts to links:
    [x.(c).(l)] users of class [c] play link [l], with
    [Σ_l x.(c).(l) = count c].  It is the pure-strategy object of the
    class layer; {!expand_profile}/{!compress_profile} bridge it to the
    per-user {!Pure.profile} exactly (users laid out class-major, links
    ascending within a class), and the differential suite in
    [test/test_cgame.ml] pins the two layers bit-identical on every
    predicate they share. *)

type t

(** Per-class link assignment counts, [k × m]. *)
type profile = int array array

(** [make ~counts ~weights ~beliefs] validates and builds a class game:
    one positive count, positive weight and belief per class, beliefs
    agreeing on [m ≥ 2] links, and a total user count that fits a
    native [int].
    @raise Invalid_argument on any violation. *)
val make : counts:int array -> weights:Numeric.Rational.t array -> beliefs:Belief.t array -> t

(** [make_uncertain ~counts ~weights ~uncertainty] builds a class game
    from per-class uncertainty backends ({!Uncertainty}); {!make} is
    exactly this over {!Uncertainty.bayesian} wrappers, bit-identically.
    Per-class contribution and bias come from the same constructor as
    {!Game.make_uncertain}'s. *)
val make_uncertain :
  counts:int array -> weights:Numeric.Rational.t array -> uncertainty:Uncertainty.t array -> t

(** [of_capacities ~counts ~weights caps] builds the reduced form from
    the per-class effective capacity matrix [caps.(c).(l)], each row
    realised as a Dirac belief (mirrors {!Game.of_capacities}). *)
val of_capacities :
  counts:int array -> weights:Numeric.Rational.t array -> Numeric.Rational.t array array -> t

(** [kp ~counts ~weights ~capacities] is the classical KP instance:
    every class is certain of the same capacity vector. *)
val kp :
  counts:int array -> weights:Numeric.Rational.t array -> capacities:Numeric.Rational.t array -> t

val classes : t -> int
val links : t -> int

(** [users g] is the total population [n = Σ_c count]. *)
val users : t -> int

(** [count g c] is the number of users in class [c]. *)
val count : t -> int -> int

(** [weight g c] is the common weight of class [c]'s users. *)
val weight : t -> int -> Numeric.Rational.t

(** [uncertainty g c] is class [c]'s uncertainty backend. *)
val uncertainty : t -> int -> Uncertainty.t

(** [contribution g c] is the per-user traffic link loads carry for
    class [c]'s users ({!Game.contribution}). *)
val contribution : t -> int -> Numeric.Rational.t

(** [bias g c] is the own-latency surcharge of class [c]'s users
    ({!Game.bias}); zero for load-linear classes. *)
val bias : t -> int -> Numeric.Rational.t

(** [is_load_linear g] holds when every class's latency has the plain
    [load/ĉ] form ({!Game.is_load_linear}). *)
val is_load_linear : t -> bool

(** [capacity g c l] is the effective capacity [c^l] of class [c]. *)
val capacity : t -> int -> int -> Numeric.Rational.t

(** [capacity_row g c] is class [c]'s effective capacity vector
    (fresh copy). *)
val capacity_row : t -> int -> Numeric.Rational.t array

(** [total_traffic g] is [Σ_c count_c · w_c], exactly. *)
val total_traffic : t -> Numeric.Rational.t

(** [packed_tables g] is the game's native-int packing ({!Packing},
    one row per class with count multiplicities), computed once at
    construction; [None] when any component exceeds the native range. *)
val packed_tables : t -> Packing.t option

(** [rows g] is the game's per-class tables, one row per class, sharing
    the game's own arrays: read-only ({!Game.rows}). *)
val rows : t -> Packing.rows

(** [compress g] groups the users of a per-user game into classes of
    equal weight, equal effective-capacity row and equal contribution,
    in first-seen order, and returns the class game together with the
    user → class map.
    The grouping is observational: two users whose distinct beliefs
    induce the same capacity row share a class (the class keeps the
    first user's belief), which is exact for every quantity in the
    game — all latencies factor through the effective capacities. *)
val compress : Game.t -> t * int array

(** [expand g] is the per-user game with [users g] users laid out
    class-major (class 0's users first).  Exact: weights, beliefs and
    capacity rows are replicated per class, so
    [expand (fst (compress h))] agrees with [h] on every latency —
    modulo the class-major reordering recorded by [compress]'s map.
    Intended for [n] small enough to afford O(n) arrays. *)
val expand : t -> Game.t

(** [validate g x] checks that [x] is a well-formed class profile:
    [k × m], non-negative entries, and each row summing to the class
    count. @raise Invalid_argument otherwise. *)
val validate : t -> profile -> unit

(** [expand_profile g x] is the per-user profile matching {!expand}'s
    user layout: within a class, users are assigned links in ascending
    link order ([x.(c).(0)] users on link 0, then [x.(c).(1)], …). *)
val expand_profile : t -> profile -> int array

(** [compress_profile g ~class_of p] folds a per-user profile into
    per-class counts using the user → class map (as returned by
    {!compress}).  @raise Invalid_argument when lengths or link indices
    are out of range. *)
val compress_profile : t -> class_of:int array -> int array -> profile
