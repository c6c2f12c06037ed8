(** Arbitrary-precision signed integers, layered over {!Bignat}.

    The representation is tagged: values in [[-max_int, max_int]] are a
    native [int] (no allocation, overflow-checked native arithmetic)
    and everything larger is a sign + {!Bignat} magnitude.  The split is
    canonical — a value that fits the native range is always stored
    natively — so every integer has exactly one representation and
    structural equality coincides with numerical equality.  All
    arithmetic falls back to the limb representation exactly when a
    native operation would overflow. *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int_opt : t -> int option
val to_int_exn : t -> int

(** [abs_nat n] is the magnitude |n| as a natural. *)
val abs_nat : t -> Bignat.t

(** [sign n] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** [assert_well_formed ~ctx n] checks the tagged-representation
    invariants ([Small] never [min_int]; a [Big] magnitude is in
    Bignat normal form and never fits a native int) and raises
    {!Sanitize.Violation} naming [ctx] on the first breach.  Called
    automatically at operation boundaries when {!Sanitize.enabled}. *)
val assert_well_formed : ctx:string -> t -> unit

(** [unsafe_big ~negative mag] builds a [Big] with no demotion or
    checking.  Exists only so sanitizer tests can forge malformed
    values; never use it to build real numbers. *)
val unsafe_big : negative:bool -> Bignat.t -> t

(** [hash n] is consistent with {!equal} across both representations:
    the canonical small/big split guarantees numerically equal values
    hash identically. *)
val hash : t -> int

(** [num_bits n] is the bit length of |n|; [num_bits zero = 0]. *)
val num_bits : t -> int

(** [size n] is the magnitude of [n] in 30-bit limbs, in O(1):
    [2^(30(w-1)) <= |n| < 2^(30w)] for [w = size n > 0]; [size zero = 0]. *)
val size : t -> int

(** [approx n] is a 29-bit mantissa bracket [(mant, e)] of the
    magnitude of a non-zero [n]: [2^28 <= mant < 2^29] and
    [mant·2^e <= |n| < (mant+1)·2^e], with the exponent interpreted
    symbolically (negative below [2^28]).  O(1).
    @raise Invalid_argument on {!zero}. *)
val approx : t -> int * int

(** [is_native n] holds when [n] is stored in the small-value (native
    int) representation — exposed for benchmarks and fast-path gating;
    equivalent to [n] lying in [[-max_int, max_int]]. *)
val is_native : t -> bool

(** [native_or_min_int n] is [n] as a native int when {!is_native}
    holds, and [min_int] otherwise: a sentinel no native value takes,
    since that range is symmetric.  Unlike {!to_int_opt} it allocates
    nothing, so native images of [Bigint] tables can be kept with it. *)
val native_or_min_int : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is truncated division: the quotient rounds toward zero
    and the remainder has the sign of [a], with [a = q*b + r] and
    [|r| < |b|].  @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor. *)
val gcd : t -> t -> t

(** [pow b e] raises [b] to a non-negative exponent.
    @raise Invalid_argument when [e < 0]. *)
val pow : t -> int -> t

val of_string : string -> t
val to_string : t -> string
val to_float : t -> float
