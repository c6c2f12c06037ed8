(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    30-bit limbs with no leading zero limb, so every mathematical natural
    has exactly one representation and structural equality coincides with
    numerical equality.

    This module exists because the execution environment provides no
    big-integer package; exact rational arithmetic over these naturals
    backs every Nash-condition test in the library. *)

type t

(** [of_int n] converts a non-negative [n].
    @raise Invalid_argument if [n < 0]. *)
val of_int : int -> t

(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)
val to_int_opt : t -> int option

(** [to_int_exn n] is [n] as a native int.
    @raise Failure when [n] does not fit. *)
val to_int_exn : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int

(** [bits_native v] is the bit length of a non-negative native value
    ([bits_native 0 = 0]) via a constant six-step branch tree. *)
val bits_native : int -> int

(** [approx n] is a 29-bit mantissa bracket [(mant, e)] of a non-zero
    [n]: [2^28 <= mant < 2^29] and [mant·2^e <= n < (mant+1)·2^e],
    where the exponent is interpreted symbolically (it is negative for
    values below [2^28]).  O(1) — reads only the top two limbs.
    @raise Invalid_argument on {!zero}. *)
val approx : t -> int * int

(** [hash n] folds explicitly over the canonical limb sequence, so
    [equal a b] implies [hash a = hash b] and the hash never depends on
    [Hashtbl.hash]'s representation traversal (or its size limits). *)
val hash : t -> int

(** [assert_well_formed ~ctx n] checks the canonical-representation
    invariants (no high zero limb, every limb in [[0, 2^30)]) and
    raises {!Sanitize.Violation} naming [ctx] on the first breach.
    Called automatically at construction and operation boundaries when
    {!Sanitize.enabled} is set. *)
val assert_well_formed : ctx:string -> t -> unit

(** [unsafe_of_limbs a] wraps a raw little-endian limb array with no
    normalization or checking.  Exists only so sanitizer tests can
    forge malformed values; never use it to build real numbers. *)
val unsafe_of_limbs : int array -> t

val add : t -> t -> t

(** [sub a b] is [a - b].
    @raise Invalid_argument when [b > a]. *)
val sub : t -> t -> t

val succ : t -> t

(** [pred n] is [n - 1]. @raise Invalid_argument on [zero]. *)
val pred : t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)] with Euclidean semantics.
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** [gcd a b] is the greatest common divisor; [gcd zero zero = zero]. *)
val gcd : t -> t -> t

(** [gcd_int a b] is the binary (Stein) GCD on non-negative native
    ints, the allocation-free core of the small-value fast path.
    @raise Invalid_argument when either argument is negative. *)
val gcd_int : int -> int -> int

(** [pow b e] is [b] raised to the non-negative native exponent [e].
    @raise Invalid_argument if [e < 0]. *)
val pow : t -> int -> t

(** [shift_left n k] is [n * 2^k]. @raise Invalid_argument if [k < 0]. *)
val shift_left : t -> int -> t

(** [shift_right n k] is [n / 2^k]. @raise Invalid_argument if [k < 0]. *)
val shift_right : t -> int -> t

(** [num_bits n] is the position of the highest set bit plus one;
    [num_bits zero = 0]. *)
val num_bits : t -> int

(** [num_limbs n] is the number of 30-bit limbs ([num_limbs zero = 0]);
    an O(1) magnitude estimate: [2^(30(w-1)) <= n < 2^(30w)] for
    [w = num_limbs n > 0]. *)
val num_limbs : t -> int

(** [of_string s] parses a decimal numeral (optional [_] separators).
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_string : t -> string

(** [to_float n] is the nearest (up to rounding in the conversion chain)
    float; large values may overflow to [infinity]. *)
val to_float : t -> float
