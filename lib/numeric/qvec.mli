(** Small exact vectors of rationals.

    These are thin wrappers over [Rational.t array] used for belief
    distributions, traffic vectors and probability rows.  Operations
    are exact; nothing here is performance-critical. *)

type t = Rational.t array

val dim : t -> int

val sum : t -> Rational.t
val equal : t -> t -> bool

(** [is_distribution v] holds when all entries are in [0, 1] and they
    sum to exactly 1. *)
val is_distribution : t -> bool

(** [is_positive_distribution v] additionally requires all entries > 0. *)
val is_positive_distribution : t -> bool
