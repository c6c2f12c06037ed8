(** Exact rational arithmetic.

    A rational is kept in lowest terms with a positive denominator, so
    structural equality coincides with numerical equality.  This type is
    the scalar of the whole library: latencies, capacities, tolerances,
    probabilities and social costs are all exact rationals, which makes
    Nash-condition tests exact (no floating-point tie-breaking). *)

type t

val zero : t
val one : t
val two : t
val half : t
val minus_one : t

(** [make num den] is [num/den] in lowest terms.
    @raise Division_by_zero when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_ints num den] is [num/den]. @raise Division_by_zero on [den = 0]. *)
val of_ints : int -> int -> t

val of_int : int -> t
val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

(** [to_float q] is the closest float obtainable by dividing the float
    images of numerator and denominator. *)
val to_float : t -> float

val is_zero : t -> bool
val is_integer : t -> bool
val sign : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** [compare_sum a b c] is [compare (add a b) c] computed without
    materialising the sum: the unreduced numerator and denominator of
    [a + b] are compared against [c] through the same staged filters as
    {!compare} (sign, shared denominator, native cross products,
    limb-size and mantissa-interval prefilters), so the hot Nash
    inequality [load + weight ⋚ latency·capacity] costs no gcd
    normalisation and no rational allocation. *)
val compare_sum : t -> t -> t -> int

(** [compare_div a b c d] is [compare (div a b) (div c d)] computed
    without materialising either quotient: the unreduced cross terms
    of [a/b] and [c/d] (signs fixed for negative divisors) feed the
    same staged comparison as {!compare_sum}, so the max-relative-load
    scan [load_l / c_l ⋚ load_l' / c_l'] costs no gcd and allocates no
    rational.  @raise Division_by_zero when [b] or [d] is zero. *)
val compare_div : t -> t -> t -> t -> int

(** [unsafe_of_parts num den] builds [num/den] with no normalization
    or checking.  Exists only so sanitizer tests can forge malformed
    values; never use it to build real numbers. *)
val unsafe_of_parts : Bigint.t -> Bigint.t -> t

val neg : t -> t
val abs : t -> t
val inv : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [div a b]. @raise Division_by_zero when [b] is zero. *)
val div : t -> t -> t

(** [sub_mul a b c] is [a - b*c], short-circuiting the zero factors
    that dominate exact Gaussian-elimination inner loops. *)
val sub_mul : t -> t -> t -> t

val min : t -> t -> t
val max : t -> t -> t

val sum : t list -> t
val sum_array : t array -> t

(** [floor q] is the greatest integer [<= q], as a rational. *)
val floor : t -> t

(** [ceil q] is the least integer [>= q], as a rational. *)
val ceil : t -> t

(** [of_string s] parses ["a/b"], ["a"], or a decimal like ["3.25"]
    (with optional sign). @raise Invalid_argument on malformed input,
    a zero denominator included. *)
val of_string : string -> t

val to_string : t -> string

(** [to_decimal_string q ~digits] renders [q] in decimal with exactly
    [digits] fractional digits, truncated toward zero (exact long
    division — no float rounding): [to_decimal_string (1/3) ~digits:4 =
    "0.3333"]. @raise Invalid_argument when [digits < 0]. *)
val to_decimal_string : t -> digits:int -> string

val pp : Format.formatter -> t -> unit
