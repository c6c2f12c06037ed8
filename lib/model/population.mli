(** The population record behind {!Game} and {!Cgame}: one row per
    user or per class, each with a count of exchangeable users (all 1
    for a per-user game).  Both game types are this record, built by
    the one constructor here, so the rule that turns backends into
    latencies lives in one place.

    Two derived per-row quantities drive every latency downstream:

    {ul
    {- the {e contribution} [t = load_factor(u)·w] — the traffic other
       users expect to meet from one user of the row (its full weight
       except under Bernoulli participation);}
    {- the {e bias} [β = w − t] — the surcharge on that user's own
       expected latency, since it is always present for itself.}}

    A user's expected latency on its link [ℓ] is [(L_ℓ + β)/c^ℓ] where
    [L_ℓ] sums contributions, and after a deviation to [ℓ'] it is
    [(L_{ℓ'} + w)/c^{ℓ'}].  With every bias zero (the {e load-linear}
    case) both collapse to the paper's [load/ĉ] form. *)

type t = private {
  counts : int array;
  weights : Numeric.Rational.t array;
  uncertainty : Uncertainty.t array;
  beliefs : Belief.t array;  (** decision-equivalent ({!Uncertainty.belief}) *)
  capacities : Numeric.Rational.t array array;  (** [capacities.(r).(l)] = [c^l] of row [r] *)
  contribs : Numeric.Rational.t array;
  biases : Numeric.Rational.t array;
  load_linear : bool;
  users : int;  (** [Σ counts] *)
  total : Numeric.Rational.t;  (** [Σ counts·w] *)
  packed : Packing.t option;
      (** native-int tables; [None] unless load-linear and in range *)
}

(** [contribution u w] is the contribution of a weight-[w] user with
    backend [u]: [w] itself (physically) when [u] is load-linear. *)
val contribution : Uncertainty.t -> Numeric.Rational.t -> Numeric.Rational.t

(** [check_traffics who weights] raises [Invalid_argument] with the
    prefix [who] unless every weight is positive. *)
val check_traffics : string -> Numeric.Rational.t array -> unit

(** [make who ~counts ~weights ~uncertainty] validates and builds the
    record.  The caller has checked that the three arrays are non-empty
    and of equal length.  Checks, in order: positive traffics, one link
    count across backends, at least two links, positive counts, and a
    total count that fits a native [int]; every message is prefixed by
    [who].  The arrays are copied. *)
val make :
  string ->
  counts:int array ->
  weights:Numeric.Rational.t array ->
  uncertainty:Uncertainty.t array ->
  t

(** [rows p] is the exact per-row tables, sharing [p]'s own arrays:
    read-only. *)
val rows : t -> Packing.rows
