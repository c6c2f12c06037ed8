(** xoshiro256++ pseudo-random generator (Blackman & Vigna 2019).

    256 bits of state, period 2^256 - 1, excellent statistical quality.
    State is mutable and owned by a single simulation thread; create
    independent generators from distinct seeds for independent
    experiment streams. *)

type t

(** [create seed] initialises the state by expanding [seed] through
    SplitMix64, as recommended by the authors. *)
val create : int64 -> t

(** [next_int64 t] advances the state and returns 64 uniform bits. *)
val next_int64 : t -> int64
