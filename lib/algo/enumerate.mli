open Model

(** Exhaustive enumeration of pure Nash equilibria.

    The ground truth for the existence experiments (E4, E5) and the
    worst-case-equilibrium experiments (E10–E12): exact search over all
    [m^n] pure profiles. *)

(** [budget] is the largest profile space the scans below search:
    [10_000_000].  {!Kp.Milchtaich}'s exhaustive NE scans share it. *)
val budget : int

(** [pure_nash g] lists all pure Nash equilibria of [g].
    @raise Invalid_argument when [m^n] exceeds {!budget}. *)
val pure_nash : Game.t -> Pure.profile list

(** [count g] is the number of pure Nash equilibria. *)
val count : Game.t -> int

(** [exists g] holds when at least one pure Nash equilibrium exists —
    Conjecture 3.7 asserts this is always true. *)
val exists : Game.t -> bool

(** [extremal_nash g ~cost] is [Some (best, worst)] — the equilibria
    minimising and maximising [cost] — or [None] when no pure Nash
    equilibrium exists. *)
val extremal_nash :
  Game.t ->
  cost:(Game.t -> Pure.profile -> Numeric.Rational.t) ->
  ((Pure.profile * Numeric.Rational.t) * (Pure.profile * Numeric.Rational.t)) option
