(** Network states and state spaces (Section 2 of the paper).

    A {e state} assigns a positive capacity to each of the [m] parallel
    links; the {e state space} [Φ] is the finite, non-empty set of
    states the network may realise.  Users do not observe the realised
    state — they hold beliefs over the space ({!Belief}). *)

type t
(** A capacity vector [⟨c^1, …, c^m⟩] with every [c^ℓ > 0]. *)

type space
(** A non-empty set of states over the same number of links. *)

(** [make caps] validates a capacity vector.
    @raise Invalid_argument when [caps] is empty or any entry is
    non-positive. *)
val make : Numeric.Rational.t array -> t

(** [of_ints caps] builds a state from positive integer capacities. *)
val of_ints : int array -> t

(** [links s] is the number of links [m]. *)
val links : t -> int

(** [capacity s l] is [c^l], for [l] in [0, m).
    @raise Invalid_argument when [l] is out of range. *)
val capacity : t -> int -> Numeric.Rational.t

val capacities : t -> Numeric.Rational.t array
val equal : t -> t -> bool

(** [space states] validates a state space: non-empty, all states over
    the same link count.
    @raise Invalid_argument otherwise. *)
val space : t list -> space

(** [singleton s] is the space containing exactly [s] (the certainty
    case that recovers the KP-model). *)
val singleton : t -> space

val space_links : space -> int
val space_size : space -> int

(** [state space k] is the [k]-th state.
    @raise Invalid_argument when [k] is out of range. *)
val state : space -> int -> t
