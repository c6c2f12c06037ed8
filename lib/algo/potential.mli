open Model

(** Potential-function analysis (Section 3.2).

    The paper reports (citing its technical report [9]) that the
    uncertainty game is {e not} an exact potential game, and (citing
    B. Monien) not an ordinal potential game either, so Rosenthal-style
    existence arguments cannot apply.  This module makes the first claim
    checkable: by Monderer–Shapley (1996), a game admits an exact
    potential iff around every 2-player/2-deviation square the four cost
    differences sum to zero.  We evaluate that defect exactly.

    For contrast, {!rosenthal} implements the classical potential of the
    {e unweighted common-capacity} special case, where it does certify
    convergence. *)

(** [square_defect g sigma ~i ~j ~li ~lj] is the Monderer–Shapley sum
    around the square where user [i] deviates [sigma.(i) → li] and user
    [j] deviates [sigma.(j) → lj] (other users fixed).  Non-zero for
    some square ⟺ no exact potential exists. *)
val square_defect :
  Game.t -> Pure.profile -> i:int -> j:int -> li:int -> lj:int -> Numeric.Rational.t

(** [find_nonzero_square g] searches all profiles and deviation squares
    and returns a witness [(sigma, i, j, li, lj)] with non-zero defect,
    or [None] if the game satisfies the exact-potential condition.
    @raise Invalid_argument when [m^n] exceeds the fixed budget
    [100_000]. *)
val find_nonzero_square : Game.t -> (Pure.profile * int * int * int * int) option

(** [is_exact_potential_game g] is [find_nonzero_square g = None]. *)
val is_exact_potential_game : Game.t -> bool

(** [rosenthal g sigma] is the Rosenthal potential
    [Σ_ℓ Σ_{k=1}^{N_ℓ} k / c^ℓ] for {e unweighted KP} games (all
    weights equal, all users sharing the capacities).  Any improvement
    move strictly decreases it (property-tested), which is the classical
    existence proof the paper's model escapes.
    @raise Invalid_argument unless the game is symmetric and KP. *)
val rosenthal : Game.t -> Pure.profile -> Numeric.Rational.t
