(** Online mean and variance (Welford's algorithm).

    Numerically stable single-pass accumulation; used by sweeps that
    stream thousands of per-instance measurements without storing them. *)

type t

val empty : t
val add : t -> float -> t
val count : t -> int

(** [mean t]. @raise Invalid_argument when no samples were added. *)
val mean : t -> float

(** [variance t] is the unbiased sample variance; 0 for fewer than two
    samples. @raise Invalid_argument when no samples were added. *)
val variance : t -> float

val stddev : t -> float

(** [min t] / [max t]. @raise Invalid_argument when empty. *)
val min : t -> float

val max : t -> float
