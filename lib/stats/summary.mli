(** Descriptive statistics of a stored sample. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

(** [of_array xs]. @raise Invalid_argument on the empty array; does not
    mutate [xs]. *)
val of_array : float array -> t

(** [quantile xs p] is the [p]-quantile (linear interpolation between
    order statistics), [0. <= p <= 1.].
    @raise Invalid_argument on empty input or [p] outside [0, 1]. *)
val quantile : float array -> float -> float
