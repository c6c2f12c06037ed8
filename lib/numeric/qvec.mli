(** Small exact vectors of rationals.

    These are thin wrappers over [Rational.t array] used for belief
    distributions, traffic vectors and probability rows.  Operations
    are exact; nothing here is performance-critical. *)

type t = Rational.t array

val make : int -> Rational.t -> t
val init : int -> (int -> Rational.t) -> t
val of_list : Rational.t list -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : Rational.t -> t -> t

(** [dot a b]. @raise Invalid_argument on dimension mismatch. *)
val dot : t -> t -> Rational.t

val sum : t -> Rational.t
val equal : t -> t -> bool

(** [min_index v] is the least index attaining the minimum value.
    @raise Invalid_argument on the empty vector. *)
val min_index : t -> int

(** [max_index v] is the least index attaining the maximum value.
    @raise Invalid_argument on the empty vector. *)
val max_index : t -> int

(** [is_distribution v] holds when all entries are in [0, 1] and they
    sum to exactly 1. *)
val is_distribution : t -> bool

(** [is_positive_distribution v] additionally requires all entries > 0. *)
val is_positive_distribution : t -> bool

val pp : Format.formatter -> t -> unit
