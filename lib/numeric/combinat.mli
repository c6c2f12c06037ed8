(** Exact enumerative combinatorics shared by the class-compressed
    layers.

    The mixed-layer DP ({!Model.Load_dist}) and the class-based game
    form ({!Model.Cgame}) both reduce exchangeable users to counts and
    weigh every split of a class across the links by a multinomial
    coefficient.  This module is the single home for those quantities:
    binomials and multinomials over {!Bigint} (always exact, never
    overflowing) and weak-composition enumeration/counting with an
    explicit overflow guard where a native count is required.

    It is also the one home of the exhaustive-search guard.  Every
    search over a product space ([m^n] pure profiles, support or
    Bayesian strategy profiles) sizes the space with the checked power
    {!pow}, refuses it through {!search_space} against a fixed budget
    named in the calling module, and walks it with the one odometer
    {!iter_odometer}. *)

(** [choose n k] is the binomial coefficient C(n, k) — [zero] when
    [k < 0] or [k > n].  Exact for any magnitude.
    @raise Invalid_argument when [n < 0]. *)
val choose : int -> int -> Bigint.t

(** [multinomial parts] is the multinomial coefficient
    [(Σ parts)! / Π parts.(i)!] — the number of ways to assign
    [Σ parts] distinguishable users to groups of the given sizes.
    [multinomial [||] = one].
    @raise Invalid_argument when any part is negative. *)
val multinomial : int array -> Bigint.t

(** [factorial n]. @raise Invalid_argument when [n < 0]. *)
val factorial : int -> Bigint.t

(** [compositions ~total ~parts] is the number of weak compositions of
    [total] into [parts] ordered non-negative parts,
    [C(total + parts - 1, parts - 1)] — the number of distinct ways a
    class of [total] exchangeable users can split across [parts] links.
    @raise Invalid_argument when [total < 0] or [parts < 1]. *)
val compositions : total:int -> parts:int -> Bigint.t

(** [compositions_int ~total ~parts] is {!compositions} as a native
    [int].
    @raise Invalid_argument (mentioning overflow) when the count does
    not fit — e.g. at the huge [n·m] a caller should never enumerate. *)
val compositions_int : total:int -> parts:int -> int

(** [iter_compositions ~total ~parts f] calls [f] on every weak
    composition of [total] into [parts] parts, in lexicographic order
    of the part vector (first part ascending).  The array passed to [f]
    is reused between calls: copy it if you retain it.
    @raise Invalid_argument when [total < 0] or [parts < 1]. *)
val iter_compositions : total:int -> parts:int -> (int array -> unit) -> unit

(** [pow b e] is [Some b^e], or [None] when the power exceeds
    [max_int].  [pow b 0 = Some 1]; [b = 0] and [b = 1] return at once
    for any [e].
    @raise Invalid_argument when [b < 0] or [e < 0]. *)
val pow : int -> int -> int option

(** [search_space ~who ~what ~budget b e] is [b^e] when it is at most
    [budget].  Every exhaustive search calls it before searching, so an
    over-budget space is refused after at most 63 multiplications.
    @raise Invalid_argument ["<who>: <b>^<e> <what> exceed the limit
    <budget>"] when [b^e] exceeds [budget] or overflows. *)
val search_space : who:string -> what:string -> budget:int -> int -> int -> int

(** [iter_odometer ~digits ~base f] calls [f] on every vector in
    [[0, base)^digits], in odometer order: the last digit varies
    fastest.  The array passed to [f] is reused between calls: copy it
    if you retain it.  With [digits = 0] or [base <= 1], [f] sees the
    all-zero vector once. *)
val iter_odometer : digits:int -> base:int -> (int array -> unit) -> unit
