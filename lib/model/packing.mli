(** Integer images of a game's numeric data, and the load lanes of the
    [View]/[Cview] cursors.

    Both lanes use one scheme: link loads and each row's weight,
    contribution and bias are integer numerators over one common
    denominator, and capacities are reduced [(num, den)] pairs, so every
    latency comparison is a three-factor integer cross product with no
    gcd and no rational built.

    - The {e packed} lane holds native ints, scaled by the lcm of the
      weight denominators.  Under the product bound
      [2·total·maxcd·maxcn <= max_int] every product and intermediate
      provably fits a native int — an exact computation with zero
      allocation and zero per-operation checks.
    - Whenever any component would spill the native range the lane is
      the {e exact} one instead: the same numerators over a
      denominator that is always exactly the lcm of the live weight,
      contribution and initial-traffic denominators (recomputed on
      construction, spill and reweight, natively from cached per-row
      denominators unless one is [Big] or their lcm overflows), with
      capacities read from the rows' reduced num/den.  Its state is
      native-primary: every load, row entry and the total Σ loads is
      a native int, or [min_int] with the value in a [Bigint] side
      table when it is past the native range.  While the total is
      native, {!shift} and {!add_count} touch no [Bigint], and a
      reweight that keeps the scale patches only its row and the
      loads it occupies.  A row whose bias B and weight W satisfy
      [0 <= B <= W], whose capacity nums/dens are native and whose
      [(max_l L_l + W)·maxcd_r·maxcn_r] fits [max_int] runs every
      kernel below on those ints, through the very integer kernels of
      the packed lane (which passes T = W and B = 0); any other row
      runs their [Bigint] twins.  Loads are non-negative, so the test
      is O(1) on the total (total + W within the row's limit), and
      the O(m) max-load rule runs only when that fails: the admitted
      rows are exactly the rule's.

    Packing therefore never changes results, only speed.

    This module is the only one that knows which lane a cursor runs on
    ({!lane} is abstract).  A {e row} is a user for [View] and a class
    for [Cview]; the kernels take the lane, the exact {!rows} tables and
    a row index, and are plain first-order functions so the hot path
    pays no closure or functor indirection. *)

type t = {
  scale : int;  (** lcm of the weight denominators *)
  pw : int array;  (** [pw.(r)] = weight of row [r] · [scale] *)
  cn : int array;  (** [cn.(r*m + l)] = capacity numerator, > 0 *)
  cd : int array;  (** [cd.(r*m + l)] = capacity denominator, > 0 *)
  wsum : int;  (** Σ mult_r · pw.(r): total scaled traffic *)
  maxcn : int;
  maxcd : int;
  base_ok : bool;  (** the product bound holds at [total = wsum] (no initial traffic) *)
}

(** An exact rational vector over one common denominator. *)
type lifted = {
  den : Numeric.Bigint.t;  (** the lcm of the entries' denominators *)
  nums : Numeric.Bigint.t array;  (** [nums.(i)] = entry [i] · [den], an integer *)
  mass : Numeric.Bigint.t;  (** Σ mults.(i) · nums.(i) *)
}

(** [lift ?mults qs] scales [qs] to integers by the lcm of their
    denominators in one [Bigint] pass: no gcd beyond the lcm fold and
    no rational built.  [mults] (default all ones) weights the [mass];
    for a game's weights it is the rows' population multiplicities (all
    ones for per-user games, class counts for compressed games), so
    [mass / den] is the total traffic. *)
val lift : ?mults:int array -> Numeric.Rational.t array -> lifted

(** [build weights capacities] packs one row per weight from the
    weights' {!lift} (with the rows' multiplicities), narrowing its
    scale, numerators and mass to native ints without recomputing
    them, and each capacity's reduced num/den.  [None] when any of
    these exceeds the native range. *)
val build : lifted -> Numeric.Rational.t array array -> t option

(** {1 Lanes} *)

(** The exact per-row tables the lanes mirror: weight, contribution
    (the presence-discounted traffic other users meet), bias (weight −
    contribution, the own-latency surcharge) and the effective capacity
    row.  The exact lane reads capacities straight from [caps]. *)
type rows = {
  weights : Numeric.Rational.t array;
  contribs : Numeric.Rational.t array;
  biases : Numeric.Rational.t array;
  caps : Numeric.Rational.t array array;
}

(** Mutable per-link loads over one common denominator: native ints
    (packed), or native ints with a [Bigint] side table (exact). *)
type lane

(** [make_lane pk rows ?initial m] is a lane over [m] links and the
    rows [rows], holding only the [initial] traffic (none when absent):
    packed when [pk] is given and the product bound holds at [pk]'s
    full population plus [initial], exact otherwise, with its scale the
    lcm of [rows]' weight and contribution denominators and [initial]'s.
    The caller then places every occupant with {!add_count}. *)
val make_lane : t option -> rows -> ?initial:Numeric.Rational.t array -> int -> lane

val links : lane -> int

(** [is_packed lane] holds on the native-int lane. *)
val is_packed : lane -> bool

(** [scale lane] is the common denominator the loads are held over: the
    packing scale on the packed lane, and exactly the lcm of the live
    weight, contribution and initial-traffic denominators on the exact
    lane. *)
val scale : lane -> Numeric.Bigint.t

(** [load lane l] is the current traffic on link [l], canonical on both
    lanes. O(1). *)
val load : lane -> int -> Numeric.Rational.t

(** [load_num lane l] is link [l]'s load times {!scale}: an integer,
    not reduced.  O(1). *)
val load_num : lane -> int -> Numeric.Bigint.t

(** [add_count lane r ~link ~delta] adds [delta] (possibly negative)
    row-[r] users to [link]'s load, unchecked. O(1). *)
val add_count : lane -> int -> link:int -> delta:int -> unit

(** [shift lane r ~src ~dst count] moves [count > 0] row-[r] users
    from [src] to [dst]: one exact patch of each of the two loads,
    native and allocation-free on the packed lane and while the exact
    lane's total is native. *)
val shift : lane -> int -> src:int -> dst:int -> int -> unit

(** {1 Kernels}

    [src] is the link the row's users currently play. *)

(** [latency lane rows r l] is a row-[r] user's latency on link [l]:
    its numerator is one native product on the packed lane and on an
    admitted exact row (re-derived by the [Bigint] kernel when
    armed). *)
val latency : lane -> rows -> int -> int -> Numeric.Rational.t

(** [latency_after_move lane rows r ~src dst] is the latency of one
    row-[r] user after unilaterally moving from [src] to [dst] (its
    current latency when [dst = src]). *)
val latency_after_move : lane -> rows -> int -> src:int -> int -> Numeric.Rational.t

(** [best_link lane rows r ~src] is the lowest-index link minimising
    that post-move latency.  O(m), allocation-free on the packed lane
    and on an admitted exact row (see the lanes above); armed, an
    admitted row's answer is re-derived by the [Bigint] kernel. *)
val best_link : lane -> rows -> int -> src:int -> int

(** [best_response lane rows r ~src] is {!best_link} paired with its
    post-move latency, [latency_after_move lane rows r ~src l]. O(m). *)
val best_response : lane -> rows -> int -> src:int -> int * Numeric.Rational.t

(** [is_defector lane rows r ~src] holds when some link strictly
    improves on [src]: integer cross products, no gcd on either lane.
    O(m), allocation-free on the packed lane and on an admitted exact
    row, whose answer is re-derived by the [Bigint] kernel when
    armed. *)
val is_defector : lane -> rows -> int -> src:int -> bool

(** [first_defecting_source ?only lane rows r counts] is the lowest
    link [s] with [counts.(s) > 0] whose row-[r] users defect, or [-1]
    when none does: the first hit of {!is_defector} over the occupied
    sources in ascending order, in one O(m) pass.

    A deviation latency (L_l + W)·cd_l/cn_l is the same from every
    source, and a source's own entry exceeds its latency
    (L_s + B)·cd_s/cn_s by T·cd_s/cn_s > 0 (T the contribution), so the
    cheapest link b decides every source: [s] defects iff b's deviation
    latency is strictly below its own latency, by {!improves}'s own
    cross product.  When [s = b] nothing is below.

    With [only] (a mask over the links), a source inside the mask still
    gets that full test, while a source outside it defects iff moving
    to the cheapest masked link strictly improves: the same answer as
    {!improves} probed towards every masked link.  [counts] and [only]
    have one entry per link.

    Under {!Numeric.Sanitize.enabled} the answer is re-derived by that
    per-pair scan, O(m²), raising {!Numeric.Sanitize.Violation} on a
    mismatch.  Allocation-free on the packed lane, armed or not, and
    on an admitted exact row when disarmed. *)
val first_defecting_source : ?only:bool array -> lane -> rows -> int -> int array -> int

(** [improves lane rows r ~src dst] holds when moving to [dst] strictly
    improves on [src]; [false] when [dst = src].  O(1),
    allocation-free on the packed lane and on an admitted exact row
    (re-derived by the [Bigint] kernel when armed). *)
val improves : lane -> rows -> int -> src:int -> int -> bool

(** [max_block lane rows r ~src ~dst ~avail] is the largest [t <= avail]
    such that [t] row-[r] users moving one after another from [src] to
    [dst <> src] each strictly improve: with a = cd_dst·cn_src,
    b = cd_src·cn_dst and D = (L_src + B)·b − (L_dst + W)·a over the
    lane's denominator, 0 when D <= 0 and otherwise
    min(avail, ⌊(D − 1)/(T·(a + b))⌋ + 1), T the row's contribution.
    [avail] is the number of row-[r] users on [src].  O(1), native and
    allocation-free on the packed lane and, for [avail > 0], on an
    admitted exact row, whose answer is re-derived by the [Bigint]
    kernel when armed. *)
val max_block : lane -> rows -> int -> src:int -> dst:int -> avail:int -> int

(** {1 Structural deltas}

    Each [revise_*] patches the lane and returns the lane to carry on
    with: the argument itself, or — when the revised magnitudes break
    the product bound — a fresh exact lane, built from [rows] and the
    packed loads by an O(k + m) int→[Bigint] copy.  A spill leaves the
    old packed lane untouched, so it is the lane to restore on undo.
    The unchecked [reweight]/[set_capacity] revert a delta that did not
    spill.  Call each one before updating [rows]. *)

(** [revise_count lane rows r ~link ~delta] adds [delta] row-[r] users
    on [link]; undo with [add_count ~delta:(-delta)].  [rows] is read
    only by a spill. *)
val revise_count : lane -> rows -> int -> link:int -> delta:int -> lane

(** [revise_weight lane rows r counts ~weight ~contrib] gives each
    row-[r] user (laid out over the links as [counts]) the weight
    [weight] and contribution [contrib].  Reads the previous
    contribution from [rows], so call it before updating [rows].  On
    the exact lane it recomputes the scale with row [r]'s new pair and
    rescales every load and row entry exactly, so the scale also
    shrinks when a denominator leaves. *)
val revise_weight :
  lane ->
  rows ->
  int ->
  int array ->
  weight:Numeric.Rational.t ->
  contrib:Numeric.Rational.t ->
  lane

(** [reweight] is {!revise_weight} without the bound check or spill. *)
val reweight :
  lane ->
  rows ->
  int ->
  int array ->
  weight:Numeric.Rational.t ->
  contrib:Numeric.Rational.t ->
  unit

(** [revise_capacity lane rows r ~link cap] sets row [r]'s effective
    capacity on [link] to [cap > 0].  Loads are unaffected, and the
    exact lane's [Bigint] kernels read capacities from [rows], so it
    only patches its native image. *)
val revise_capacity : lane -> rows -> int -> link:int -> Numeric.Rational.t -> lane

(** [set_capacity] is {!revise_capacity} without the bound check or
    spill. *)
val set_capacity : lane -> int -> link:int -> Numeric.Rational.t -> unit

(** {1 Sanitizer} *)

(** [audit lane rows count] checks the exact lane's scale invariant
    when {!Numeric.Sanitize.enabled}: the scale is the lcm of the live
    weight, contribution and initial-traffic denominators (and so are
    the cached per-row and initial-traffic denominators), each row
    entry is its rational times the scale, each load is the scale
    times (initial + Σ_r [count r l]·contribution_r), where [count r l]
    is the number of row-[r] users on link [l], and the cached total
    is the sum of the loads.  Every cell must be canonical: its native
    value, or [min_int] exactly when the value is [Big].  The capacity
    image must hold every capacity num/den of [rows] ([min_int] for a
    [Big] one), and each row limit must match it.  Raises
    {!Numeric.Sanitize.Violation} on a breach.  O(k·m) when armed; free
    when disarmed or on the packed lane. *)
val audit : lane -> rows -> (int -> int -> int) -> unit
