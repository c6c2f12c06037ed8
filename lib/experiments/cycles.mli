(** Experiments E4 and E6: response cycles in the game graph.

    E4 (the n = 3 result of Section 3.1): every 3-user game possesses a
    pure NE and its best-response graph has no cycle — we verify both on
    random instances by exhaustive graph search.

    E6 (Section 3.2, observation of B. Monien): the game is not an
    ordinal potential game because some instance's state space contains
    a {e better-response} cycle — we search for such witnesses. *)

type row = {
  n : int;
  m : int;
  beliefs : string;
  trials : int;
  best_response_cycles : int;  (** instances with a best-response cycle *)
  better_response_cycles : int;  (** instances with a better-response cycle *)
  shortest_witness : int option;  (** length of the shortest cycle found *)
  all_have_pure_ne : bool;
}

(** [run ~seed ~ns ~ms ~trials ~weights ~beliefs ()] searches both
    graphs of every sampled instance exhaustively.  Trials run through
    {!Engine.sweep}. *)
val run :
  seed:int ->
  ns:int list ->
  ms:int list ->
  trials:int ->
  weights:Generators.weight_family ->
  beliefs:Generators.belief_family ->
  unit ->
  row list

val table : row list -> Stats.Table.t
