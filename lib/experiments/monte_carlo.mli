open Model

(** Monte-Carlo validation of the effective-capacity reduction.

    Section 2 computes every expected latency through the effective
    capacity [c^ℓ_i] (a belief-weighted harmonic mean).  This module
    re-estimates the same expectations the long way — sampling network
    states from each user's belief (Walker alias sampling) and averaging
    realised latencies — and reports the relative error against the
    exact value.  It doubles as an integration test of the [prng]
    substrate and as the harness a practitioner would use to plug in
    empirical state traces. *)

(** [estimate_latency g sigma ~user ~samples rng] draws [samples] states
    from the user's belief and averages the realised latencies
    [λ_{i,φ}(σ)]. *)
val estimate_latency :
  Game.t -> Pure.profile -> user:int -> samples:int -> Prng.Rng.t -> float

type row = {
  n : int;
  m : int;
  states : int;
  samples : int;
  max_rel_error : float;  (** worst relative error across users/trials *)
  mean_rel_error : float;
}

(** [run ~seed ~samples_list ~trials ()] sweeps sample counts; the
    error should shrink like 1/√samples, converging on the exact
    reduction.  Trials run through {!Engine.sweep}. *)
val run :
  seed:int -> samples_list:int list -> trials:int -> unit -> row list

val table : row list -> Stats.Table.t
