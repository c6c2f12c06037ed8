(** Experiment E5 (and the engine behind E4): existence of pure Nash
    equilibria on random instances — the paper's own evidence for
    Conjecture 3.7 ("simulations ran on numerous instances of the game
    … suggest the existence of pure NE", Section 3.2). *)

type row = {
  n : int;
  m : int;
  weights : string;
  beliefs : string;
  trials : int;
  with_pure : int;  (** instances possessing at least one pure NE *)
  min_ne : int;
  mean_ne : float;
  max_ne : int;
  br_converged : int;  (** best-response runs reaching a NE in budget *)
  mean_br_steps : float;
}

(** [run ~seed ~ns ~ms ~trials ~weights ~beliefs ()] enumerates pure
    Nash equilibria exhaustively on [trials] random instances for every
    (n, m) pair, and also follows best-response dynamics from a random
    start.  Every (cell, trial) derives its own generator from [seed]
    via {!Engine.sweep}. *)
val run :
  seed:int ->
  ns:int list ->
  ms:int list ->
  trials:int ->
  weights:Generators.weight_family ->
  beliefs:Generators.belief_family ->
  unit ->
  row list

(** [table rows] renders the sweep for printing. *)
val table : row list -> Stats.Table.t
