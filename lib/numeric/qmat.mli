(** Exact dense matrices of rationals with Gaussian elimination.

    Sized for the small linear systems of game solving (tens of
    unknowns): the support-enumeration solver expresses each candidate
    equilibrium as a square linear system over exact rationals, so
    singularity and positivity tests are exact. *)

type t

(** [make rows cols q] is a [rows × cols] matrix filled with [q].
    @raise Invalid_argument when a dimension is non-positive. *)
val make : int -> int -> Rational.t -> t

(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> Rational.t) -> t

(** [of_arrays a] copies a rectangular array of rows.
    @raise Invalid_argument on ragged or empty input. *)
val of_arrays : Rational.t array array -> t

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Rational.t
val set : t -> int -> int -> Rational.t -> unit
val transpose : t -> t
val equal : t -> t -> bool

(** [mul a b]. @raise Invalid_argument on dimension mismatch. *)
val mul : t -> t -> t

(** [mul_vec a v]. @raise Invalid_argument on dimension mismatch. *)
val mul_vec : t -> Qvec.t -> Qvec.t

(** [solve a b] solves [a x = b] for square [a] by Gaussian elimination
    with partial (first non-zero) pivoting: [Some x] when [a] is
    non-singular, [None] otherwise.
    @raise Invalid_argument when [a] is not square or [b] has the wrong
    dimension. *)
val solve : t -> Qvec.t -> Qvec.t option

(** [rank a] is the rank of [a]. *)
val rank : t -> int

(** [det a] is the determinant of square [a].
    @raise Invalid_argument when [a] is not square. *)
val det : t -> Rational.t
