(** Incremental evaluation cursor over a pure profile.

    Every equilibrium predicate in the paper compares [load/c^l_i]
    ratios, and almost every algorithm explores profiles by single-user
    deviations: best-response steps, better-response walks, game-graph
    DFS, exhaustive odometer sweeps.  A [View.t] materialises the
    per-link loads of one profile once ({!of_profile}, honouring
    [?initial]) and then maintains them under single-user moves in O(1)
    exact integer updates: {!move} touches exactly the two affected
    load entries and {!undo} restores them.  Against the view, a load
    lookup is O(1), a latency is O(1), a best response is O(m) and a
    full Nash check is O(n·m) — where the scan-based {!Pure} seed path
    paid an extra O(n) profile rescan per load.

    The view is a mutable cursor, not a value: share it only within one
    traversal, and treat the arrays returned by {!profile} and {!loads}
    as snapshots (they are copies).

    Loads are stored in one of two lanes chosen at construction.  When
    every scaled component of the game fits the native range (the
    {!Packing} bound), loads are flat native-int arrays and every
    equilibrium predicate is a three-factor native product — exact,
    allocation-free and check-free.  Otherwise the loads are [Bigint]
    numerators over one common denominator and the predicates are the
    same cross products in [Bigint].  Both lanes compute identical
    canonical rationals; lane choice is observable only through {!packed}.  The
    lane and its kernels live in {!Packing}, shared with {!Cview}: each
    user is one row, and per-user data is read straight from the
    immutable {!Game.t}. *)

type t

(** [packed v] holds when the view runs on the native-int fast lane.
    Exposed for benchmarks and tests; results never depend on it. *)
val packed : t -> bool

(** [of_profile g ?initial p] positions a fresh view at [p], computing
    all link loads once in O(n + m).  [p] is copied; later mutation of
    the caller's array does not affect the view.
    @raise Invalid_argument when [p] or [initial] is malformed (same
    checks as {!Pure.validate}). *)
val of_profile : Game.t -> ?initial:Numeric.Rational.t array -> int array -> t

val users : t -> int

(** [link v i] is the link user [i] currently plays. O(1). *)
val link : t -> int -> int

(** [profile v] is a snapshot copy of the current profile. *)
val profile : t -> int array

(** [load v l] is the current total traffic on link [l] (initial
    traffic plus the weights of the users assigned there). O(1). *)
val load : t -> int -> Numeric.Rational.t

(** [move v i l] reassigns user [i] to link [l], updating the two
    affected loads in O(1) exact integer operations and recording the
    move for {!undo}.  Moving a user to its current link is a recorded
    no-op, so move/undo sequences always balance.
    @raise Invalid_argument when [i] or [l] is out of range. *)
val move : t -> int -> int -> unit

(** [undo v] reverts the most recent un-undone {!move}. O(1).
    @raise Invalid_argument when the history is empty. *)
val undo : t -> unit

(** [shift v i l] is {!move} without recording it for {!undo}. *)
val shift : t -> int -> int -> unit

(** [depth v] is the number of moves that {!undo} can still revert. *)
val depth : t -> int

(** [latency v i] is user [i]'s expected latency [λ_{i,b_i}] at the
    current profile. O(1). *)
val latency : t -> int -> Numeric.Rational.t

(** [latency_on_link v i l] is the latency user [i] would experience
    after unilaterally moving to [l] (its current latency when [l] is
    its current link). O(1). *)
val latency_on_link : t -> int -> int -> Numeric.Rational.t

(** [best_response_for v i] is the lowest-index link minimising user
    [i]'s post-move latency, paired with that latency. O(m). *)
val best_response_for : t -> int -> int * Numeric.Rational.t

(** [improves v i l] holds when moving to [l] strictly lowers user [i]'s latency. O(1). *)
val improves : t -> int -> int -> bool

(** [improving_moves v i] lists, in increasing order, the links that
    would strictly lower user [i]'s latency. O(m). *)
val improving_moves : t -> int -> int list

(** [is_defector v i] holds when user [i] has an improving move. O(m). *)
val is_defector : t -> int -> bool

(** [defectors v] lists the users violating the Nash condition, in
    increasing order. O(n·m). *)
val defectors : t -> int list

(** [is_nash v] holds when no user can strictly improve by switching
    links. O(n·m). *)
val is_nash : t -> bool

(** [social_cost1 v] is [SC1 = Σ_i λ_{i,b_i}]. O(n). *)
val social_cost1 : t -> Numeric.Rational.t

(** [social_cost2 v] is [SC2 = max_i λ_{i,b_i}]. O(n). *)
val social_cost2 : t -> Numeric.Rational.t

(** [sweep g ?initial f] calls [f] on a view positioned at every pure
    profile, in exactly the odometer order of
    {!Social.iter_profiles} (last user varies fastest).  Because
    consecutive odometer profiles differ by an amortised O(1) number of
    single-user moves, the whole sweep performs O(m^n) load updates
    total instead of rebuilding loads per profile — the inner loop of
    an exhaustive scan drops from O(n·m) to O(m) amortised per
    profile.  [f] may {!move}/{!undo} on the view as long as every
    move is undone before it returns; do not retain the view. *)
val sweep : Game.t -> ?initial:Numeric.Rational.t array -> (t -> unit) -> unit
