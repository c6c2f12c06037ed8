open Model

(** All mixed Nash equilibria by support enumeration.

    For a fixed support profile [S_1, …, S_n] (the sets of links each
    user plays with positive probability), the Nash conditions of
    Section 2 are linear: for every user [i] there is a latency level
    [λ_i] with

    {v ((1 - p^l_i)·w_i + W^l) / c^l_i = λ_i   for l ∈ S_i v}

    together with [Σ_{l∈S_i} p^l_i = 1], where
    [W^l = Σ_k p^l_k w_k].  This module enumerates all
    [(2^m - 1)^n] support profiles, solves each square system exactly
    (see {!Numeric.Qmat}), and keeps the solutions that are genuine
    equilibria (positive on support, no profitable off-support link).

    It is exponential and meant for small games; its value is
    cross-validation: the singleton-support solutions must be exactly
    the pure Nash equilibria, and the full-support solution must be the
    closed-form fully mixed equilibrium of Theorem 4.6 — both checked in
    the test suite, giving an independent derivation of the paper's
    formulas. *)

type finding = {
  profile : Mixed.profile;
  supports : int list array;  (** the support of each user *)
  latencies : Numeric.Rational.t array;  (** λ_i at the equilibrium *)
}

type result = {
  equilibria : finding list;
  degenerate_supports : int;
      (** support profiles whose linear system was singular — possible
          equilibrium components that the square-system method cannot
          enumerate (reported, not silently dropped) *)
}

(** [all_nash g] enumerates every support profile.
    @raise Invalid_argument when [(2^m - 1)^n] exceeds the fixed
    budget [200_000]. *)
val all_nash : Game.t -> result

(** [solve_support g supports] solves the equal-latency system for one
    support profile: [Some finding] when the system is non-singular and
    the solution satisfies all Nash conditions. *)
val solve_support : Game.t -> int list array -> finding option
