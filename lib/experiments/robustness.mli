(** E17 — the price of misinformation.

    The paper's model prices uncertainty into the game but never asks
    how much {e wrong} beliefs cost.  This experiment does: a ground
    truth distribution [q] over the state space is fixed, each user's
    belief is the contaminated mixture [(1-ε)·q + ε·noise_i] with
    private noise, the game is played to a pure Nash equilibrium, and
    the resulting assignment is priced under the {e true} distribution.
    The ratio against the optimum achievable under truth measures what
    belief accuracy is worth.  At [ε = 0] the game is a KP instance and
    the ratio is the ordinary price of anarchy; as [ε → 1] beliefs are
    pure noise. *)

type row = {
  epsilon : Numeric.Rational.t;  (** contamination level *)
  trials : int;
  mean_ratio : float;  (** mean realised SC1 / true OPT1 *)
  max_ratio : float;
  equilibrium_failures : int;  (** dynamics not converged (expect 0) *)
}

(** [truth_ratio g ~truth profile] prices [profile] under the true
    belief [truth]: its SC1 with each user's load read against the
    true effective capacities, over OPT1 of the informed game ([g]'s
    weights, every user holding [truth]).  E18 ({!Learning}) prices
    its equilibria the same way. *)
val truth_ratio : Model.Game.t -> truth:Model.Belief.t -> Model.Pure.profile -> float

(** [run ~seed ~n ~m ~states ~epsilons ~trials ()] sweeps contamination
    levels; each trial draws a fresh truth, fresh noise and a fresh
    starting profile.  [noise] selects the contamination shape:
    [`Simplex] (diffuse random distributions, default) or [`Point]
    (confidently wrong: all mass on one random state).  Trials run
    through {!Engine.sweep}. *)
val run :
  ?noise:[ `Simplex | `Point ] ->
  seed:int ->
  n:int ->
  m:int ->
  states:int ->
  epsilons:Numeric.Rational.t list ->
  trials:int ->
  unit ->
  row list

val table : row list -> Stats.Table.t
