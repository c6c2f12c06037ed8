(** Incremental equilibrium repair after a mutation batch.

    Re-solving from scratch after every mutation throws away almost
    all of the work: a small batch perturbs the loads of a handful of
    links, so only users who can {e see} the perturbation — members of
    mutated classes plus users on touched links — can have a changed
    best response.  {!repair_batch} applies a batch to a live
    {!Model.Cview} cursor positioned at an equilibrium and repairs it
    locally:

    - {b Seeding.}  Each mutation dirties its class; arrivals and
      departures touch their link, and a reweight touches every link
      the class occupies (their loads changed).  A capacity revision
      dirties its class only — loads are unaffected, so no other
      class's latencies move.
    - {b Restricted epochs.}  The scan visits occupied (class, link)
      pairs in the same class-ascending, link-ascending order as
      {!Algo.Cbr}'s first-defector order, but a {e clean} pair — clean
      class on an untouched link — only checks moves {e into} touched
      links: starting from an equilibrium, its own latency is
      unchanged, so any new improving move must target a link whose
      load dropped.  Dirty or touched pairs get the full defector
      check.  Both rules run in one O(m) pass per class
      ({!Model.Cview.first_defecting_source} with the touched mask for
      a clean class): a touched source is compared with the cheapest
      link overall, an untouched one with the cheapest touched link.
      Each block move marks its source and destination links
      touched ({e frontier expansion}) and re-enters the scan.
    - {b Saturation and fallback.}  When the frontier saturates (every
      link touched) the restricted scan degrades to exactly
      {!Algo.Cbr}'s full first-defector scan, i.e. full best-response
      convergence running in place on the warm profile.  When a clean
      scan fails the final verification (non-equilibrium start), the
      repair falls back to {!Algo.Cbr.converge_in_place} on the same
      live view, from the current profile: no second cursor, no
      rebuilt game, and every fallback move is undoable like the rest.
    - {b One budget.}  [max_steps] bounds the block moves of the whole
      batch, restricted scan and fallback together; the fallback gets
      what the scan left.
    - {b Verification.}  Every return is a proven equilibrium, and
      the cursor leaves {!Model.Cview.certified}.  A batch that began
      on a certified cursor needs no further proof: from an
      equilibrium start the restricted scan is sound, so its clean
      finish {e is} the proof, and the repair calls
      {!Model.Cview.certify} instead of scanning again (under
      [SELFISH_SANITIZE] [certify] still runs the exact scan and
      raises on a disagreement).  A batch that began uncertified ends
      in the exact {!Model.Cview.is_nash}.  A repair that cannot reach
      equilibrium rolls the batch back, certificate included, and
      raises instead of returning.

    From an arbitrary (non-Nash) start the scan may terminate early;
    such a start is never certified, so the exact verification routes
    into the fallback and the result is an equilibrium regardless.

    This is the only repair driver.  A per-user game is served as its
    class game ({!Model.Cgame.compress}): users differ only by weight
    and uncertainty, so nothing per-user is lost. *)

type outcome = {
  moves : int;  (** block moves performed (fallback steps included) *)
  users_moved : int;  (** users carried by those moves *)
  seeded_classes : int;  (** classes dirtied by the batch itself *)
  seeded_links : int;  (** links touched by the batch itself *)
  frontier_links : int;  (** touched links when the scan finished *)
  fallback : bool;  (** full re-solve fallback was taken *)
  nash : bool;
      (** the batch ended at a proven equilibrium — by the certified
          scan or the exact {!Model.Cview.is_nash}; [true] on every
          return *)
}

(** [repair_batch ?max_steps v batch] applies [batch] to [v] (via
    {!Mutation.apply}, in order) and repairs equilibrium as described
    above.  The batch is atomic: when it raises, every mutation and
    move it made has been undone, so [v]'s profile, loads, lane, undo
    depth and {!Model.Cview.certified} are exactly those before the
    call.
    @raise Invalid_argument when a mutation is rejected,
    [max_steps <= 0] (default [1_000_000]), or the batch needs more
    than [max_steps] block moves in all. *)
val repair_batch : ?max_steps:int -> Model.Cview.t -> Mutation.t list -> outcome
