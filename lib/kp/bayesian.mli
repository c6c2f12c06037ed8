(** The complementary incomplete-information model of Gairing, Monien
    and Tiemann (SPAA 2005), cited by the paper as [8]: a KP network
    with {e common} link capacities where the uncertainty is about the
    {e traffics} of the users, not the capacities.

    Each user has a finite set of possible traffic values (types) with a
    commonly known distribution and knows only its own realisation; a
    pure Bayesian strategy maps each type to a link.  The paper situates
    its contribution against this model ("complementary to our work"),
    so the reproduction implements it as a baseline: [8] proves a pure
    Bayesian Nash equilibrium always exists, which experiment E14 checks
    side by side with Conjecture 3.7 for the capacity-uncertainty
    model. *)

type t

(** [make ~capacities ~types] builds an instance; [types.(i)] lists the
    [(traffic, probability)] pairs of user [i].
    @raise Invalid_argument when capacities are not positive, a type
    list is empty, traffics are not positive, or probabilities are not
    an exact distribution. *)
val make :
  capacities:Numeric.Rational.t array ->
  types:(Numeric.Rational.t * Numeric.Rational.t) list array ->
  t

type strategy = int array array
(** [strategy.(i).(k)] is the link chosen by user [i] when its type is
    [k]. *)

(** [expected_foreign_load t s ~user l] is
    [Σ_{k≠user} E[w_k · 1(s_k = l)]] — the expected traffic others put
    on link [l]. *)
val expected_foreign_load : t -> strategy -> user:int -> int -> Numeric.Rational.t

(** [latency t s ~user ~ty l] is the conditional expected latency of
    user [user] with realised type [ty] on link [l]. *)
val latency : t -> strategy -> user:int -> ty:int -> int -> Numeric.Rational.t

(** [is_nash t s] holds when every type of every user best-responds. *)
val is_nash : t -> strategy -> bool

(** [solve t] runs best-response dynamics over (user, type) pairs from
    the all-on-link-0 strategy.  [8] proves pure equilibria always
    exist; on identical links the dynamics provably converge, and a
    generous step budget guards the general case.
    @raise Failure if the budget is exhausted (never observed). *)
val solve : t -> strategy

(** [exists_pure_nash t] checks exhaustively over all [m^{Σ|T_i|}]
    strategies. @raise Invalid_argument when that count exceeds the
    fixed budget [1_000_000]. *)
val exists_pure_nash : t -> bool

(** [random rng ~n ~m ~max_types ~bound] draws a random instance with
    integer capacities and traffics in [1, bound]. *)
val random : Prng.Rng.t -> n:int -> m:int -> max_types:int -> bound:int -> t
