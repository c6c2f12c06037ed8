(** Walker's alias method for O(1) categorical sampling.

    Preprocesses a finite discrete distribution into two tables in
    O(k) time; each draw then costs one bounded integer and one float.
    Used by Monte-Carlo experiments that repeatedly realise network
    states from user beliefs. *)

type t

(** [of_rationals qs] builds a sampler for the distribution
    proportional to [qs], whose float images feed the tables.
    @raise Invalid_argument if [qs] is empty, any weight is negative,
    or all weights are zero. *)
val of_rationals : Numeric.Rational.t array -> t

(** [sample t rng] draws a category index. *)
val sample : t -> Rng.t -> int
