(** Social optimum and coordination ratio (Section 2).

    Because beliefs are subjective there is no objective congestion
    measure; the paper defines the optimum over {e pure} assignments as
    the minimum of the sum (OPT1) or the maximum (OPT2) of individual
    expected costs.  Both are computed exactly by {!minimise}, the one
    pure-optimum search of the library: a branch-and-bound over the
    [m^n] pure profiles that returns the same value and argmin as an
    exhaustive scan.  It refuses a space of more than {!budget}
    profiles through {!Numeric.Combinat.search_space}. *)

(** [iter_profiles g f] calls [f] on every pure profile in
    {!Numeric.Combinat.iter_odometer} order (last user varies fastest),
    reusing one mutable array (do not retain it across calls). *)
val iter_profiles : Game.t -> (Pure.profile -> unit) -> unit

(** [profile_count g] is [m^n], or [None] on overflow. *)
val profile_count : Game.t -> int option

(** The search budget of {!opt1}/{!opt2}: [10_000_000] profiles. *)
val budget : int

(** [minimise ~who ~budget g cost] is [(min, argmin)] of [cost] over the
    pure profiles of [g].  It places users [0..n-1] in turn, each on its
    links in ascending order, so it meets the profiles in
    {!iter_profiles} order, and returns the first minimum in that order.
    [cost loads sigma k] prices a prefix: users [0..k-1] sit on
    [sigma.(0..k-1)] and [loads.(l)] sums their {!Game.contribution}s
    on link [l] (the entries of [sigma] from [k] on are stale).  At
    [k = n] it is the objective itself.  [cost] must never fall as [k]
    grows along a profile, so that a prefix whose cost reaches the best
    complete profile so far can be cut; every sum or maximum of
    latencies, which only grow as users join, qualifies.  Neither array
    may be retained or written.
    @raise Invalid_argument ["<who>: <m>^<n> pure profiles exceed the
    limit <budget>"] before any search when [m^n] exceeds [budget]. *)
val minimise :
  who:string ->
  budget:int ->
  Game.t ->
  (Numeric.Rational.t array -> Pure.profile -> int -> Numeric.Rational.t) ->
  Numeric.Rational.t * Pure.profile

(** [opt1 g] is [(OPT1, argmin)] — the minimum over pure profiles of
    [Σ_i λ_{i,b_i}(σ)], found by {!minimise}.  The argmin is the first
    minimum in odometer order.  The search is serial; experiments that
    repeat it over many instances shard the instances through [Engine].
    @raise Invalid_argument when [m^n] exceeds {!budget}. *)
val opt1 : Game.t -> Numeric.Rational.t * Pure.profile

(** [opt2 g] is [(OPT2, argmin)] for the max-cost objective. *)
val opt2 : Game.t -> Numeric.Rational.t * Pure.profile

(** [ratio1 g p] is [SC1(G,P) / OPT1(G)] for a mixed profile [p]. *)
val ratio1 : Game.t -> Mixed.profile -> Numeric.Rational.t

(** [ratio2 g p] is [SC2(G,P) / OPT2(G)]. *)
val ratio2 : Game.t -> Mixed.profile -> Numeric.Rational.t
