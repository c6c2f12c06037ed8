(** Experiments E1–E3 and E8: measured running time of the paper's
    polynomial-time algorithms as problem size grows.

    The theorems claim O(n²) for A_twolinks, O(n²m) for A_symmetric,
    O(n(log n + m)) for A_uniform and O(nm) for the fully mixed closed
    form.  These rows report wall-clock time per call; the *shape*
    (low-order polynomial growth) is what reproduces the claims —
    absolute numbers depend on the machine and on exact-arithmetic
    costs. *)

type row = {
  algorithm : string;
  n : int;
  m : int;
  microseconds : float;  (** mean time per solved instance *)
  repetitions : int;
}

(** [time_call f] runs [f ()] repeatedly until enough clock time
    accumulates and returns (microseconds per call, repetitions). *)
val time_call : (unit -> unit) -> float * int

(** The timed algorithms: A_twolinks (m = 2 only), A_symmetric (on
    unit weights), A_uniform (on uniform link views) and the fully
    mixed closed form. *)
type algorithm = Two_links | Symmetric | Uniform | Fully_mixed

(** [run ~seed algorithm ~sizes] times [algorithm] on one random
    instance of its family for each [(n, m)] in [sizes], in order. *)
val run : seed:int -> algorithm -> sizes:(int * int) list -> row list

val table : row list -> Stats.Table.t
