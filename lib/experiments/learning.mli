(** E18 — the value of measurement.

    The paper motivates beliefs by "different sources of information
    regarding the network".  This experiment makes the pipeline
    concrete: each user estimates its belief from [k] independent
    observations of the network state (empirical distribution with
    Laplace smoothing, {!Model.Belief.from_counts}), the estimated game
    is played to equilibrium, and the assignment is priced under the
    true distribution.  As [k] grows the realised cost ratio should fall
    to the fully-informed level — quantifying what a measurement
    campaign buys. *)

type row = {
  observations : int;  (** samples per user (0 = uniform prior only) *)
  trials : int;
  mean_ratio : float;  (** mean realised SC1 / true OPT1 *)
  max_ratio : float;
  mean_belief_error : float;
      (** mean total-variation distance between the estimated belief and
          the truth *)
  equilibrium_failures : int;  (** dynamics not converged (expect 0) *)
}

(** [run ~seed ~n ~m ~states ~observations ~trials ()] sweeps
    observation counts.  Trials run through {!Engine.sweep}. *)
val run :
  seed:int ->
  n:int ->
  m:int ->
  states:int ->
  observations:int list ->
  trials:int ->
  unit ->
  row list

val table : row list -> Stats.Table.t
