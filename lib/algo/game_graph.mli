open Model

(** Explicit game graphs over all [m^n] pure profiles.

    The paper's game graph (Section 3.1) has the game's states as nodes
    and an edge [s → s'] whenever a defecting user's move transforms [s]
    into [s'].  We build two variants: the {e best-response} graph
    (defectors move only to latency-minimising links — the graph used to
    prove the n = 3 result) and the {e better-response} graph (any
    improving move — an ordinal potential game has no cycle here). *)

type move_kind = Best_response | Better_response

(** [budget] is the largest profile space {!search} walks: [2_000_000]. *)
val budget : int

(** What {!search} drives; the search owns the profile [p]: [reset p]
    positions the cursor at a root, [shift i ~src ~dst] moves user [i]
    (back up a tree edge with [src] and [dst] swapped), and
    [improves p i l] holds when user [i]'s move to [l <> p.(i)] is an
    edge. *)
type cursor = {
  reset : int array -> unit;
  improves : int array -> int -> int -> bool;
  shift : int -> src:int -> dst:int -> unit;
}

(** [search ~who ~users ~links c] is the library's one improvement-graph
    search, behind {!find_cycle} and
    {!Kp.Milchtaich.Weighted.has_better_response_cycle}: a DFS over all
    [links^users] profiles on an explicit stack, roots in mixed-radix
    order (user 0 least significant), moves in ascending user and then
    descending link, returning the first cycle closed.
    @raise Invalid_argument naming [who] when [links^users] exceeds
    {!budget}. *)
val search : who:string -> users:int -> links:int -> cursor -> Pure.profile list option

(** [find_cycle g ~kind] searches the whole graph and returns a witness
    cycle (a list of successive profiles, first = last omitted) if one
    exists: each profile, and the first after the last, is reached by
    one move of the given kind (optionally with initial link traffic,
    the Definition 3.1 setting).  It is {!search} over one incremental
    {!View}: O(1) per tree edge and per candidate move.
    @raise Invalid_argument when [m^n] exceeds {!budget}. *)
val find_cycle :
  ?initial:Numeric.Rational.t array -> Game.t -> kind:move_kind -> Pure.profile list option
