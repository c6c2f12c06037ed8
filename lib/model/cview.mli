(** Incremental evaluation cursor over a class profile.

    The class-layer analogue of {!View}: per-link loads are
    materialised once from the [k × m] assignment counts (O(k·m)) and
    maintained under {e block moves} — [count] users of one class
    moving from one link to another — in O(1) exact integer updates,
    independent of [count] and of the population size [n].  Against the
    view, a latency is O(1), a best response is O(m), a full Nash check
    is O(k·m) (one defector pass per class, {!Packing.first_defecting_source}),
    SC2 is O(k·m) and SC1 is O(m) integer products plus one integer
    fold per (class, link) pair changed since the last query: no
    operation scales with [n].

    All per-user predicates survive compression exactly: users of one
    class on one link are interchangeable, so "some user defects" is a
    property of the occupied (class, link) pairs.  The differential
    suite ([test/test_cgame.ml]) pins every function here bit-identical
    to its {!View}/{!Pure} counterpart through
    {!Cgame.expand}/{!Cgame.expand_profile}.

    Beyond block moves, the cursor supports {e structural deltas} —
    {!revise_count} (arrivals/departures), {!revise_weight} and
    {!revise_capacity} — each an exact O(m)-or-better load patch that
    mutates the view (never the underlying {!Cgame.t}), records an
    undo entry, and re-checks the {!Packing} product bound, spilling
    to the exact [Bigint] lane without a rebuild when the revised
    magnitudes no longer fit.  {!to_cgame} re-materialises a class
    game from the revised state.

    The lane and its kernels live in {!Packing}, shared with {!View}:
    each class is one row.

    Like {!View}, this is a mutable cursor, not a value: share it only
    within one traversal. *)

type t

(** [packed v] holds when the view runs on the native-int fast lane
    (see {!Packing}).  Exposed for benchmarks and tests; results never
    depend on it. *)
val packed : t -> bool

(** [scale v] is the common denominator the view's loads are held over
    ({!Packing.scale}): on the exact lane always the lcm of the live
    weight and contribution denominators.  Exposed for tests; results
    never depend on it. *)
val scale : t -> Numeric.Bigint.t

(** [of_profile g x] positions a fresh view at [x], validating it and
    computing all link loads once in O(k·m).  [x] is deep-copied.
    @raise Invalid_argument when [x] is malformed. *)
val of_profile : Cgame.t -> Cgame.profile -> t

val classes : t -> int
val links : t -> int

(** [assigned v c l] is the number of class-[c] users on link [l]. O(1). *)
val assigned : t -> int -> int -> int

(** [profile v] is a snapshot copy of the current class profile. *)
val profile : t -> Cgame.profile

(** [load v l] is the current total traffic on link [l]. O(1). *)
val load : t -> int -> Numeric.Rational.t

(** [loads v] is a snapshot copy of the per-link loads. *)
val loads : t -> Numeric.Rational.t array

(** [move v ~cls ~src ~dst ~count] reassigns [count] users of class
    [cls] from link [src] to link [dst] in O(1) exact rational
    operations (one multiplication, two load updates), recording the
    move for {!undo}.  [count = 0] and [src = dst] are recorded no-ops.
    @raise Invalid_argument when an index is out of range, [count < 0],
    or [count] exceeds the users of [cls] currently on [src]. *)
val move : t -> cls:int -> src:int -> dst:int -> count:int -> unit

(** [undo v] reverts the most recent un-undone {!move} or structural
    delta — O(1) for a move, O(m) for a delta.
    @raise Invalid_argument when the history is empty. *)
val undo : t -> unit

(** [depth v] is the number of moves and structural deltas {!undo} can
    still revert. *)
val depth : t -> int

(** [clear_history v] forgets the undo history ([depth v] becomes 0)
    without changing the state: applied structural deltas stay applied,
    so {!revised} and {!to_cgame} still reflect them.  Bounds the
    memory of a long-lived cursor that never undoes. *)
val clear_history : t -> unit

(** [weight v c] is class [c]'s current (possibly revised) weight. *)
val weight : t -> int -> Numeric.Rational.t

(** [capacity v c l] is class [c]'s current effective capacity on link
    [l], reflecting any {!revise_capacity}. *)
val capacity : t -> int -> int -> Numeric.Rational.t

(** [class_count v c] is the current number of class-[c] users, [Σ_l
    assigned v c l].  O(m). *)
val class_count : t -> int -> int

(** [revised v] holds when at least one structural delta is currently
    applied (pushed and not yet undone). *)
val revised : t -> bool

(** [revise_count v ~cls ~link ~delta] adds [delta] class-[cls] users
    on [link] ([delta < 0] removes).  One O(1) load patch; on the
    packed lane arrivals re-check the {!Packing} bound against the
    grown total and spill to the exact lane when it fails.
    @raise Invalid_argument when an index is out of range, departures
    exceed the users on the link, or the revision would empty the
    class (class counts must stay positive). *)
val revise_count : t -> cls:int -> link:int -> delta:int -> unit

(** [revise_weight v ~cls w'] rewrites class [cls]'s weight to [w'],
    patching every occupied link's load by [count·(t' − t)] (O(m));
    contribution and bias are re-derived from the class's uncertainty
    backend (whose presence is unchanged by revisions).  On the packed
    lane the new scaled weight must stay integral and within the
    product bound, else the view spills.
    @raise Invalid_argument on a class out of range or [w' ≤ 0]. *)
val revise_weight : t -> cls:int -> Numeric.Rational.t -> unit

(** [revise_capacity v ~cls ~link cap'] rewrites class [cls]'s
    effective capacity on [link].  Loads are unaffected (O(1)); the
    packed capacity pair is patched in place when [cap']'s reduced
    numerator and denominator keep the product bound, else the view
    spills.  @raise Invalid_argument on an index out of range or
    [cap' ≤ 0]. *)
val revise_capacity : t -> cls:int -> link:int -> Numeric.Rational.t -> unit

(** [to_cgame v] re-materialises a class game from the revised state:
    current counts, weights and capacity rows.  Classes with untouched
    capacity rows keep their original uncertainty backend; revised rows
    are re-wrapped as the matching certain belief (degenerate interval
    for [Strict]) — exact, since every decision factors through the
    effective capacities.  Returns the original game (same value) when
    no structural delta is applied.  [of_profile (to_cgame v)
    (profile v)] holds the same loads, latencies and Nash verdict as
    [v], bit-identically. *)
val to_cgame : t -> Cgame.t

(** [latency v c l] is the expected latency of a class-[c] user playing
    link [l] at the current loads, [load l / c^l_c].  O(1). *)
val latency : t -> int -> int -> Numeric.Rational.t

(** [latency_after_move v ~cls ~src dst] is the latency a single
    class-[cls] user currently on [src] would experience after
    unilaterally moving to [dst] (its current latency when
    [dst = src]).  O(1). *)
val latency_after_move : t -> cls:int -> src:int -> int -> Numeric.Rational.t

(** [best_response_for v ~cls ~src] is the lowest-index link minimising
    that user's post-move latency, paired with the latency.  O(m).
    Matches {!View.best_response_for} for any expanded user of class
    [cls] on [src]. *)
val best_response_for : t -> cls:int -> src:int -> int * Numeric.Rational.t

(** [best_link v ~cls ~src] is [fst (best_response_for v ~cls ~src)]
    without building the latency.  O(m), allocation-free on the packed
    lane. *)
val best_link : t -> cls:int -> src:int -> int

(** [is_defector v ~cls ~src] holds when a class-[cls] user on [src]
    has a strictly improving move.  Meaningful when
    [assigned v cls src > 0].  O(m). *)
val is_defector : t -> cls:int -> src:int -> bool

(** [improves v ~cls ~src dst] holds when moving one class-[cls] user
    from [src] to [dst] strictly lowers its latency — the
    single-destination restriction of {!is_defector}.  [false] when
    [dst = src].  O(1), allocation-free on the packed lane, so callers
    may probe candidate destinations one at a time. *)
val improves : t -> cls:int -> src:int -> int -> bool

(** [first_defecting_source ?only v ~cls] is the lowest link holding
    class-[cls] users who defect ({!is_defector}), [None] when none
    does.  With [only] (a mask over the links) a source outside the
    mask counts as defecting only when moving to some masked link
    strictly improves ({!improves}), while a source inside it gets the
    full test: the restricted rule of [Serve.Repair].  One pass over the
    links, O(m) whatever the number of occupied sources
    ({!Packing.first_defecting_source}). *)
val first_defecting_source : ?only:bool array -> t -> cls:int -> int option

(** [first_defector v] is the first occupied (class, link) pair — class
    ascending, then link ascending — whose users defect, together with
    their best-response link: exactly the move the per-user
    first-defector step ([Algo.Best_response.step]) would make on the
    expanded profile.
    [None] at a Nash equilibrium, which also sets {!certified}.
    O(k·m): one {!first_defecting_source} pass per class. *)
val first_defector : t -> (int * int * int) option

(** [is_nash v] holds when no user of any class can strictly improve by
    switching links.  O(k·m) — independent of the population size.
    Always the exact scan: it never reads {!certified}, and a [true]
    verdict sets it. *)
val is_nash : t -> bool

(** [certified v] holds when the current profile is proven Nash: an
    exact scan found no defector ({!is_nash} returned [true],
    {!first_defector} returned [None]), or {!certify} was called, and
    the state has not changed since.  {!of_profile} starts uncertified;
    every {!move}, {!undo} and structural delta clears the bit, and
    {!clear_history} keeps it.  O(1). *)
val certified : t -> bool

(** [certify v] sets {!certified} on the caller's word that the
    profile is Nash, e.g. after a restricted scan that is a proof (see
    [Serve.Repair]).  Under [SELFISH_SANITIZE] ({!Numeric.Sanitize})
    it runs the exact {!is_nash} first, so the claim is tested rather
    than trusted.
    @raise Numeric.Sanitize.Violation under the sanitizer when the
    profile is not Nash. *)
val certify : t -> unit

(** [max_improving_block v ~cls ~src ~dst] is the largest [t] such that
    moving [t] class-[cls] users from [src] to [dst] one at a time is a
    strictly improving step for {e each} of them (the [j]-th mover
    compares its pre-move latency on [src] against its post-move
    latency on [dst] with [j] movers already there).  [0] when even the
    first move does not improve.  Closed form in integer arithmetic on
    the view's lane ({!Packing.max_block}), O(1); never exceeds
    [assigned v cls src].  Requires [dst <> src]. *)
val max_improving_block : t -> cls:int -> src:int -> dst:int -> int

(** [social_cost1 v] is [SC1 = Σ_c count-weighted latencies].  Not a
    pure read: it keeps integer per-link aggregates on the cursor over
    one common multiple of the capacity numerators ({!sc1_multiple}),
    built by the first call in O(k·m) ({!of_profile} builds none), so a
    later call is O(m) integer products and one [Rational.make], plus
    one integer fold per (class, link) pair whose count changed since
    the previous one.  A {!revise_capacity} refolds its one pair, and a
    {!revise_weight} moves only the Participation bias term.  Under
    [SELFISH_SANITIZE] ({!Numeric.Sanitize}) each call re-derives SC1
    by the O(k·m) rational fold and raises
    {!Numeric.Sanitize.Violation} on a mismatch. *)
val social_cost1 : t -> Numeric.Rational.t

(** [sc1_multiple v] is the common multiple of the capacity numerators
    the {!social_cost1} aggregates are held over, [None] while none are
    built.  Exposed for tests; results never depend on it. *)
val sc1_multiple : t -> Numeric.Bigint.t option

(** [social_cost2 v] is [SC2 = max latency over occupied (c, l)].
    O(k·m). *)
val social_cost2 : t -> Numeric.Rational.t
