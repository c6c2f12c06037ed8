(** Deterministic random source for experiments.

    Wraps {!Xoshiro256} with the derived draws the experiment harness
    needs: bounded integers without modulo bias, unit floats,
    choices and bounded-denominator rationals.  Every experiment in this
    repository threads an explicit [Rng.t] so that all reported numbers
    are reproducible from a seed. *)

type t

val create : int -> t

(** [of_path seed path] is the generator at address [path] in a tree of
    streams rooted at [seed]: every coordinate is absorbed through a
    SplitMix64 avalanche, so [of_path seed [c; i]] for distinct [(c, i)]
    give statistically independent streams.  Purely functional — the
    same [(seed, path)] always yields the same stream.  This is the
    sharding primitive of the experiment engine: task [i] of cell [c]
    draws from [of_path seed [c; i]] no matter which domain runs it. *)
val of_path : int -> int list -> t

(** [bits64 t] is 64 uniform bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound); rejection-sampled so it has
    no modulo bias. @raise Invalid_argument when [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument when [lo > hi]. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [0, 1) with 53 random bits. *)
val float : t -> float

val bool : t -> bool

(** [pick_list t xs] is a uniformly chosen element of [xs].
    @raise Invalid_argument on an empty list. *)
val pick_list : t -> 'a list -> 'a

(** [rational t ~den_bound] is a uniform rational [k/d] with
    [d] uniform in [1, den_bound] and [k] uniform in [0, d]. *)
val rational : t -> den_bound:int -> Numeric.Rational.t

(** [positive_rational t ~num_bound ~den_bound] is [k/d] with
    [k] in [1, num_bound] and [d] in [1, den_bound]. *)
val positive_rational : t -> num_bound:int -> den_bound:int -> Numeric.Rational.t

(** [simplex t ~dim ~grain] is an exact probability vector of dimension
    [dim] whose entries are multiples of [1/grain]: [dim - 1] uniform
    cut points in [0, grain] are sorted and differenced (entries may be
    zero).  The law is not exactly uniform over compositions — it is a
    simple, well-spread generator for test beliefs, not a statistical
    primitive.
    @raise Invalid_argument when [dim <= 0] or [grain <= 0]. *)
val simplex : t -> dim:int -> grain:int -> Numeric.Qvec.t

(** [positive_simplex t ~dim ~grain] is like {!simplex} but every entry
    is strictly positive. Requires [grain >= dim]. *)
val positive_simplex : t -> dim:int -> grain:int -> Numeric.Qvec.t
