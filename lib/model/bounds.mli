(** Price-of-anarchy upper bounds (Theorems 4.13 and 4.14).

    Both theorems bound [SC_i(G,P) / OPT_i(G)] for every Nash
    equilibrium [P], [i ∈ {1,2}]; the bound values depend only on the
    effective capacity matrix and the dimensions, so they are computed
    exactly as rationals. *)

(** [theorem_4_13 g] is [(cmax/cmin) · (m + n - 1)/m], the bound for the
    model of uniform user beliefs.
    @raise Invalid_argument when [g] does not have uniform beliefs
    (the theorem's hypothesis). *)
val theorem_4_13 : Game.t -> Numeric.Rational.t

(** [theorem_4_14 g] is
    [(cmax² / cmin) · (m + n - 1) / Σ_j c^j_min] with
    [c^j_min = min_i c^j_i] — the general-case bound. *)
val theorem_4_14 : Game.t -> Numeric.Rational.t
