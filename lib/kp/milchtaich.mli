(** Congestion games with player-specific payoff functions
    (Milchtaich, Games and Economic Behavior 1996).

    The uncertainty game of the paper is an instance of this class, so
    the class itself is implemented as a substrate:

    - {!Weighted}: players carry integer weights and player [i]'s cost
      on link [l] is a monotone table entry indexed by the link's total
      load.  Here pure equilibria can fail to exist (Milchtaich's
      3-player/3-link counterexample); {!Weighted.search_no_pure_nash}
      finds such instances, which is what experiment E7 contrasts with
      the belief-induced games of the paper (where the n = 3 case is
      proven to always have one).
    - {!Unweighted}: every player contributes one unit of congestion, so
      the game is the unit-weight {!Weighted} game.  Milchtaich proved
      these games {e always} possess a pure Nash equilibrium; our engine
      checks that claim exhaustively in tests.

    The exhaustive scans ([pure_nash], [exists_pure_nash]) refuse more
    than {!Algo.Enumerate.budget} profiles and
    {!Weighted.has_better_response_cycle} more than
    {!Algo.Game_graph.budget}, raising [Invalid_argument] through
    {!Numeric.Combinat.search_space} before any search. *)

module Weighted : sig
  type t

  (** [make ~weights cost] wraps a weighted game: [weights.(i)] is a
      positive integer weight, and [cost.(i).(l).(load)] is defined for
      all loads [0..Σ weights] and non-decreasing in [load].
      @raise Invalid_argument on malformed input. *)
  val make : weights:int array -> Numeric.Rational.t array array array -> t

  (** [latency t p i] is player [i]'s cost under profile [p]. *)
  val latency : t -> int array -> int -> Numeric.Rational.t

  val pure_nash : t -> int array list
  val exists_pure_nash : t -> bool

  (** [has_better_response_cycle t] holds when the improvement graph of
      [t] has a cycle — i.e. the game lacks the finite improvement
      property.  Milchtaich showed this can happen even in unweighted
      games, where a pure NE always exists.  A move of player [i] to
      link [l] improves when [cost.(i).(l).(load l + w_i)] is below
      [i]'s current latency, the predicate {!pure_nash} reads; the
      search is {!Algo.Game_graph.search} over incrementally kept loads. *)
  val has_better_response_cycle : t -> bool

  (** [random rng ~weights ~links ~value_bound] draws a weighted
      player-specific game with monotone cost tables. *)
  val random : Prng.Rng.t -> weights:int array -> links:int -> value_bound:int -> t

  (** [search_no_pure_nash rng ~weights ~links ~attempts] looks for an
      instance without any pure Nash equilibrium by an adaptive local
      search (repeatedly making some equilibrium profile unstable, with
      periodic restarts), returning the witness instance and the number
      of steps used.  Blind sampling is hopeless here: random monotone
      tables almost always admit a pure NE. *)
  val search_no_pure_nash :
    Prng.Rng.t -> weights:int array -> links:int -> attempts:int -> (t * int) option
end

module Unweighted : sig
  (** [make cost] is the unit-weight game with
      [cost.(i).(l).(k-1)] = cost to player [i] on link [l] shared by
      [k] players.
      @raise Invalid_argument on ragged tables, tables not covering
      congestions [1..players], or costs decreasing in [k]. *)
  val make : Numeric.Rational.t array array array -> Weighted.t

  (** [random rng ~players ~links ~value_bound] draws monotone cost
      tables with rational entries. *)
  val random : Prng.Rng.t -> players:int -> links:int -> value_bound:int -> Weighted.t
end
