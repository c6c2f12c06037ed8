open Model

(** Pure Nash equilibria for the classical KP-model (the point-belief
    special case of the uncertainty game).

    [solve] is the greedy algorithm of Fotakis et al. [6] — a variant of
    Graham's LPT rule for related links: process users in order of
    decreasing weight and give each its best response against the users
    already placed.  For KP instances this yields a pure Nash
    equilibrium in O(n(log n + m)). *)

(** [solve g] is a pure Nash equilibrium.
    @raise Invalid_argument unless [Game.is_kp g]. *)
val solve : Game.t -> Pure.profile
