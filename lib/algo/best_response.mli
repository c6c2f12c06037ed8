open Model

(** Best- and better-response dynamics on pure profiles.

    These dynamics power several experiments: convergence from arbitrary
    starting points (supporting Conjecture 3.7), the search for
    better-response cycles (the game is not an ordinal potential game —
    Section 3.2, observation due to B. Monien), and the n = 3
    no-best-response-cycle claim. *)

type policy =
  | First_defector  (** move the lowest-index defector *)
  | Last_defector  (** move the highest-index defector *)
  | Best_improvement  (** move the defector with the largest latency gain *)

type outcome = {
  profile : Pure.profile;  (** final profile *)
  steps : int;  (** moves performed *)
  converged : bool;  (** final profile is a Nash equilibrium *)
}

(** [step g ?initial ~policy p] performs one best-response move, or
    returns [None] when [p] is already a Nash equilibrium.  The mover
    and its target are found in a single O(n·m) pass over a {!View}
    (one best-response scan per user), for every policy. *)
val step :
  Game.t -> ?initial:Numeric.Rational.t array -> policy:policy -> Pure.profile ->
  Pure.profile option

(** [converge g ?initial ?policy ~max_steps p] iterates best-response
    moves from [p] until equilibrium or the step budget runs out.  The
    whole run holds one incremental {!View}: each step applies an O(1)
    load delta instead of copying and re-materialising the profile. *)
val converge :
  Game.t ->
  ?initial:Numeric.Rational.t array ->
  ?policy:policy ->
  max_steps:int ->
  Pure.profile ->
  outcome
