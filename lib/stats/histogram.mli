(** Fixed-width histograms with ASCII rendering for experiment output. *)

type t

(** [create ~lo ~hi ~bins] covers [lo, hi) with [bins] equal cells plus
    underflow/overflow counters.
    @raise Invalid_argument when [bins <= 0] or [hi <= lo]. *)
val create : lo:float -> hi:float -> bins:int -> t

val add : t -> float -> unit
val count : t -> int
val underflow : t -> int
val overflow : t -> int

(** [counts t] is a copy of the per-bin counters. *)
val counts : t -> int array

(** [render t] is a multi-line bar chart, one line per bin. *)
val render : t -> string
