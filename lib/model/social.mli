(** Social optimum and coordination ratio (Section 2).

    Because beliefs are subjective there is no objective congestion
    measure; the paper defines the optimum over {e pure} assignments as
    the minimum of the sum (OPT1) or the maximum (OPT2) of individual
    expected costs.  Both are computed exactly by exhaustive search over
    the [m^n] pure profiles, which is the paper's own definition.  The
    search refuses a space of more than [10_000_000] profiles through
    {!Numeric.Combinat.search_space}. *)

(** [iter_profiles g f] calls [f] on every pure profile in
    {!Numeric.Combinat.iter_odometer} order (last user varies fastest),
    reusing one mutable array (do not retain it across calls). *)
val iter_profiles : Game.t -> (Pure.profile -> unit) -> unit

(** [profile_count g] is [m^n], or [None] on overflow. *)
val profile_count : Game.t -> int option

(** [opt1 g] is [(OPT1, argmin)] — the minimum over pure profiles of
    [Σ_i λ_{i,b_i}(σ)].  The scan walks profiles in odometer order on
    an incremental {!View}, so each profile costs O(n) instead of the
    seed path's O(n²) recompute.  The argmin is the first minimum in
    odometer order.  The scan is serial; experiments that repeat it
    over many instances shard the instances through [Engine].
    @raise Invalid_argument when [m^n] exceeds the fixed budget
    [10_000_000]. *)
val opt1 : Game.t -> Numeric.Rational.t * Pure.profile

(** [opt2 g] is [(OPT2, argmin)] for the max-cost objective. *)
val opt2 : Game.t -> Numeric.Rational.t * Pure.profile

(** [ratio1 g p] is [SC1(G,P) / OPT1(G)] for a mixed profile [p]. *)
val ratio1 : Game.t -> Mixed.profile -> Numeric.Rational.t

(** [ratio2 g p] is [SC2(G,P) / OPT2(G)]. *)
val ratio2 : Game.t -> Mixed.profile -> Numeric.Rational.t

(** [opt1_bb g] / [opt2_bb g] compute the same optima by
    branch-and-bound (users in decreasing weight order; the partial cost
    is a valid lower bound because latencies only grow as users join),
    reaching well beyond the exhaustive [m^n] range.  Exact; equality
    with {!opt1}/{!opt2} is property-tested. *)
val opt1_bb : Game.t -> Numeric.Rational.t * Pure.profile

val opt2_bb : Game.t -> Numeric.Rational.t * Pure.profile
