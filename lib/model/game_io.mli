(** Plain-text game descriptions for the command-line tools.

    Two forms are accepted.  The {e generative} form spells out the
    state space and one belief per user:

    {v
    # three users, two links, two possible network states
    links 2
    weights 4 3 2
    state fast 10 4
    state slow 3 4
    belief fast: 1
    belief slow: 1
    belief fast: 1/2, slow: 1/2
    v}

    The {e reduced} form gives the effective capacity matrix directly,
    one row per user:

    {v
    links 2
    weights 3 2
    capacities 2 1
    capacities 1 3
    v}

    The {e class} form describes a {!Cgame} — one row per class of
    interchangeable users, [class <count> <weight> <c_1> … <c_m>]:

    {v
    links 2
    class 1000000 1 2 1
    class 5 1/2 1 3
    v}

    Class files are parsed by {!parse_cgame}; mixing class rows with
    per-user directives is rejected in both directions.

    An optional [uncertainty <bayesian|participation|strict>] stanza
    (at most one per file, position-independent like [links]) selects
    the {!Uncertainty} backend; omitting it means [bayesian], so every
    pre-stanza file parses unchanged.  [participation] additionally
    requires a [presence p_1 … p_n] line (one probability in [(0, 1]]
    per user — per class in class files) on top of either belief or
    capacities form:

    {v
    links 2
    uncertainty participation
    weights 3 2
    presence 1/2 3/4
    capacities 2 1
    capacities 1 3
    v}

    [strict] replaces beliefs/capacities with one [interval] row per
    user carrying a [lo hi] capacity pair per link (class files carry
    the pairs on the class rows themselves):

    {v
    links 2
    uncertainty strict
    weights 3 2
    interval 1 2 3 4
    interval 2 2 1 5
    v}

    Numbers are exact rationals ([3], [1/2], [0.75]; a zero denominator
    is a [bad number]).  Lines starting with [#] and blank lines are
    ignored.

    Every form except the belief form is a printing of one
    {!table}: optional class counts, one weight per entry (user or
    class) and one backend body.  The binary [Serve.Wire] codec encodes
    the same table, so the two formats cannot drift apart, and both
    build games through the one construction path
    ({!game_of_table}, {!cgame_of_table}). *)

(** {1 Line scanner}

    Shared with [Serve.Mutation]'s log reader. *)

(** [scan_lines text f] calls [f lineno line words] on every line of
    [text] that is neither blank nor a [#] comment, in order: [lineno]
    counts from 1, [line] is trimmed and [words] are its blank- or
    tab-separated words (never empty). *)
val scan_lines : string -> (int -> string -> string list -> unit) -> unit

(** [line_error src lineno msg] raises
    [Invalid_argument "<src>: line <lineno>: <msg>"]. *)
val line_error : string -> int -> string -> 'a

(** [line_rational src lineno word] parses an exact rational;
    malformed input raises {!line_error} with [bad number "<word>"]. *)
val line_rational : string -> int -> string -> Numeric.Rational.t

(** {1 The reduced-form table} *)

(** One row per entry. *)
type rows =
  | Capacities of Numeric.Rational.t array array
      (** effective capacities, one per link (Bayesian, participation) *)
  | Intervals of Numeric.Rational.t array array
      (** strict: [lo hi] capacity pairs, one per link, flattened *)
  | Beliefs of Belief.t array
      (** the per-user belief form; written as its effective capacities *)

type table = {
  counts : int array option;  (** class counts; [None] for per-user games *)
  weights : Numeric.Rational.t array;
  presence : Numeric.Rational.t array option;  (** participation only *)
  rows : rows;
}

(** What a construction error concerns: the whole table, the presence
    data, or entry [i]'s row. *)
type site = Whole | Presence | Row of int

(** The backend a table stores: strict for {!Intervals}, participation
    when [presence] is set, Bayesian otherwise. *)
val table_kind : table -> Uncertainty.kind

(** Number of links (of a non-empty table). *)
val table_links : table -> int

(** The per-entry rationals a payload stores: capacity rows, flattened
    interval pairs, or beliefs reduced to their effective capacities. *)
val table_rows : table -> Numeric.Rational.t array array

(** [table_of_game ~what g] and [table_of_cgame ~what g] extract the
    table (capacity rows, or interval rows under strict).
    @raise Invalid_argument ["<what>: cannot serialise mixed uncertainty
    backends"] when entries mix backend kinds. *)
val table_of_game : what:string -> Game.t -> table

val table_of_cgame : what:string -> Cgame.t -> table

(** [game_of_table ~prefix t] builds the per-user game; [cgame_of_table]
    the class game (its table must carry counts).  These hold every
    check between the table's parts (presence and row arity, interval
    rows), the participation wrap, and the error wrapping: a rejected
    table raises [Invalid_argument (prefix site ^ msg)]. *)
val game_of_table : prefix:(site -> string) -> table -> Game.t

val cgame_of_table : prefix:(site -> string) -> table -> Cgame.t

(** {1 Text form} *)

(** [parse text] builds the game described by [text].
    @raise Invalid_argument with a line-numbered message on malformed
    input; data starting with the binary wire magic ([SRWF], see
    [Serve.Wire]) is rejected with a pinned line-1 error pointing at
    the binary reader. *)
val parse : string -> Game.t

(** [to_string g] renders [g] in the reduced form (which is always
    faithful: every latency in the game factors through the effective
    capacities — plus, under participation, the presence line);
    [parse (to_string g)] yields a game with identical dimensions,
    weights, effective capacities, contributions and biases.  Strict
    games are rendered in the interval form (their only faithful one);
    all-Bayesian games render byte-identically to the pre-stanza
    format.
    @raise Invalid_argument when users mix backend kinds (such a game
    has no file form). *)
val to_string : Game.t -> string

(** [parse_cgame text] builds the class game described by [text]
    (class form only).
    @raise Invalid_argument with a line-numbered message on malformed
    input — non-integer or non-positive counts, width mismatches,
    per-user directives. *)
val parse_cgame : string -> Cgame.t

(** [to_class_string g] renders [g] in the class form (with the
    [uncertainty] stanza and its companion data when non-Bayesian);
    [parse_cgame (to_class_string g)] yields a class game with
    identical counts, weights, effective capacities, contributions and
    biases.
    @raise Invalid_argument when classes mix backend kinds. *)
val to_class_string : Cgame.t -> string
