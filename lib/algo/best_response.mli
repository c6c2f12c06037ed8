open Model

(** Best-response dynamics on pure profiles.

    These dynamics power several experiments: convergence from arbitrary
    starting points (supporting Conjecture 3.7), learning and
    robustness sweeps, and the CLI's pure solve.  The better-response
    cycle search lives in {!Game_graph}. *)

type outcome = {
  profile : Pure.profile;  (** final profile *)
  steps : int;  (** moves performed *)
  converged : bool;  (** final profile is a Nash equilibrium *)
}

(** [step g ?initial p] moves the lowest-index defector of [p] to its
    best response, or returns [None] when [p] is already a Nash
    equilibrium.  The mover and its target are found in a single O(n·m)
    pass over a {!View} (one best-response scan per user). *)
val step : Game.t -> ?initial:Numeric.Rational.t array -> Pure.profile -> Pure.profile option

(** [converge g ?initial ~max_steps p] iterates best-response
    moves from [p] until equilibrium or the step budget runs out.  The
    whole run holds one incremental {!View}: each step applies an O(1)
    load delta instead of copying and re-materialising the profile. *)
val converge :
  Game.t ->
  ?initial:Numeric.Rational.t array ->
  max_steps:int ->
  Pure.profile ->
  outcome
