open Model

(** Explicit game graphs over all [m^n] pure profiles.

    The paper's game graph (Section 3.1) has the game's states as nodes
    and an edge [s → s'] whenever a defecting user's move transforms [s]
    into [s'].  We build two variants: the {e best-response} graph
    (defectors move only to latency-minimising links — the graph used to
    prove the n = 3 result) and the {e better-response} graph (any
    improving move — an ordinal potential game has no cycle here). *)

type move_kind = Best_response | Better_response

(** [budget] is the largest profile space {!find_cycle} searches:
    [2_000_000].  {!Kp.Milchtaich}'s improvement-cycle search shares
    it. *)
val budget : int

(** [find_cycle g ~kind] searches the whole graph and returns a witness
    cycle (a list of successive profiles, first = last omitted) if one
    exists: each profile, and the first after the last, is reached by
    one move of the given kind (optionally with initial link traffic,
    the Definition 3.1 setting).  The DFS carries one incremental
    {!View} per root — an O(1) move/undo per tree edge and an id delta
    of [(l' - l)·m^i] — instead of decoding and re-materialising every
    node.
    @raise Invalid_argument when [m^n] exceeds {!budget}. *)
val find_cycle :
  ?initial:Numeric.Rational.t array -> Game.t -> kind:move_kind -> Pure.profile list option
