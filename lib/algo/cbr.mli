(** Best-response dynamics over class profiles: maximal improving
    blocks instead of single users, so each step is O(k·m) (one
    defector pass per class, {!Model.Cview.first_defector}) and the
    total work never scales with the population size [n].

    Each step takes the class layer's first defector — the exact
    (class, link) pair the per-user first-defector step would pick on
    the expanded game — and moves the {e maximal improving block}
    ({!Model.Cview.max_improving_block}) of that class from its link to
    its best response.  Every such block is a sequence of strictly
    improving single-user moves, so on games admitting a potential
    (e.g. classes whose capacity rows are positive multiples of a
    common vector, as in the bench instance) the dynamics terminate at
    a pure Nash equilibrium.  Player-specific capacities in general may
    cycle (Milchtaich 1996), hence the [max_steps] guard and the
    [converged] flag rather than a guarantee. *)

type outcome = {
  profile : Model.Cgame.profile;  (** final class profile *)
  steps : int;  (** block moves performed *)
  users_moved : int;  (** total users moved, summed over blocks *)
  converged : bool;  (** [true] iff a Nash equilibrium was reached *)
}

(** [proportional_start g] assigns each class's users to links in
    proportion to the class's effective capacities by cumulative
    rounding: with S_l the capacity prefix sum, link [l] gets
    ⌊count·S_l/S⌋ − ⌊count·S_{l−1}/S⌋ users, computed in integers.
    Counts are exact, non-negative, sum to the class count and miss
    each quota by less than one user.  This is not largest remainder:
    one user over the row (2, 1, 2) goes to link 2, not link 0. *)
val proportional_start : Model.Cgame.t -> Model.Cgame.profile

(** [converge_in_place ~max_steps v] runs block best-response dynamics
    on the live cursor [v], from its current profile, through [v]'s
    undoable {!Model.Cview.move}s, and returns
    [(steps, users_moved, converged)] with {!outcome}'s meanings.  It
    stops at the first equilibrium, or at a defector when [max_steps]
    moves are already spent ([0] only checks for an equilibrium).  This
    is the one move loop: {!converge} runs it on a fresh cursor, and
    [Serve.Repair] runs it on its live one.
    @raise Invalid_argument when [max_steps < 0]. *)
val converge_in_place : max_steps:int -> Model.Cview.t -> int * int * bool

(** [converge ?max_steps g x] runs block best-response dynamics from
    [x] (default [max_steps] 1_000_000 block moves) on a fresh
    {!Model.Cview} cursor.
    @raise Invalid_argument when [max_steps <= 0]. *)
val converge : ?max_steps:int -> Model.Cgame.t -> Model.Cgame.profile -> outcome
