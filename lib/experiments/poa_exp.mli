(** Experiments E11/E12: empirical price of anarchy against the bounds
    of Theorems 4.13 (uniform user beliefs) and 4.14 (general case).

    For every sampled instance, the worst coordination ratio over all
    pure Nash equilibria — and over the fully mixed equilibrium when it
    exists — is compared with the theorem's bound value.  The paper
    expects the bound to hold with slack (it conjectures the bounds are
    not tight). *)

type row = {
  n : int;
  m : int;
  beliefs : string;
  trials : int;
  equilibria : int;  (** equilibria examined in total *)
  max_ratio1 : float;  (** worst observed SC1/OPT1 *)
  max_ratio2 : float;
  mean_bound1 : float;  (** mean theorem bound over instances *)
  min_slack1 : float;  (** min over instances of bound − worst ratio *)
  min_slack2 : float;
  violations : int;  (** equilibria beating the bound — must be 0 *)
}

(** [run ~seed ~ns ~ms ~trials ~weights ~beliefs ~bound ()] sweeps with
    the chosen bound ([`Uniform] = Theorem 4.13, [`General] = Theorem
    4.14).  With [`Uniform] the generator must produce uniform-view
    games.  Trials run through {!Engine.sweep}. *)
val run :
  seed:int ->
  ns:int list ->
  ms:int list ->
  trials:int ->
  weights:Generators.weight_family ->
  beliefs:Generators.belief_family ->
  bound:[ `Uniform | `General ] ->
  unit ->
  row list

val table : row list -> Stats.Table.t
