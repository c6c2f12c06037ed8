(** Deterministic fork–join parallelism over OCaml 5 domains.

    The experiment sweeps are embarrassingly parallel across instances:
    each cell derives its own PRNG from a fixed seed, so results are
    identical no matter how work is scheduled.  This module provides the
    minimal fork–join layer the harness needs — no dependency on
    domainslib.  Its one caller in the libraries is [Engine]'s task
    grid; every algorithm below it is serial.

    {!map_array} runs [f] in the calling domain when [domains <= 1], so
    code paths stay identical in serial mode. *)

(** Runtime domain-ownership sanitizer.  Under [SELFISH_OWNERSHIP=1],
    the mutable cursors a caller might capture inside an [Engine] task
    ([View.t], [Cview.t]) record the creating domain's id at
    construction and assert on every mutating entry point that the
    caller matches, raising {!Ownership.Violation} otherwise.
    Disabled (a single bool test) by default. *)
module Ownership : sig
  (** Raised by {!guard} on a cross-domain mutation attempt.  The
      message pins the structure kind and both domain ids:
      ["SELFISH_OWNERSHIP: <what> created on domain <o> mutated from
      domain <c>"]. *)
  exception Violation of string

  (** Whether guards are active; initialised from [SELFISH_OWNERSHIP]
      ([1]/[true]/[yes]).  Tests may toggle it, but only while no
      other domain is running. *)
  val enabled : bool ref

  (** [self_id ()] is the calling domain's integer id,
      [(Domain.self () :> int)]. *)
  val self_id : unit -> int

  (** Test-only forgery hook: while [Some id], {!record} stamps new
      structures with [id] instead of the real domain, so a
      single-domain test can provoke and pin the {!Violation}
      message.  Never set this outside tests. *)
  val unsafe_forge : int option ref

  (** [record ()] is the owner id a structure created now should
      store: the forged id when {!unsafe_forge} is set, the calling
      domain's id otherwise.  Call it unconditionally at construction
      — it is cheap — so enabling the sanitizer later still has
      accurate owners. *)
  val record : unit -> int

  (** [guard what owner] raises {!Violation} when the sanitizer is
      enabled and the calling domain differs from [owner]; no-op
      otherwise.  [what] names the structure in the message, e.g.
      ["View cursor"]. *)
  val guard : string -> int -> unit
end

(** [available_domains ()] is a sensible default worker count:
    [Domain.recommended_domain_count ()]. *)
val available_domains : unit -> int

(** [fork_join ~workers work] runs [work w] for [w] in [0, workers) —
    worker [0] in the calling domain, the rest on fresh domains — and
    returns results in worker order.  Every domain is joined before
    the first failure (in worker order) is re-raised with the worker's
    backtrace.
    @raise Invalid_argument when [workers <= 0]. *)
val fork_join : workers:int -> (int -> 'a) -> 'a array

(** [map_array ~domains f xs] is [Array.map f xs], computed by up to
    [domains] domains with an index-interleaved distribution (better
    balance when cost grows along the array).  Results keep array
    order.  The first exception raised by any worker is re-raised.
    @raise Invalid_argument when [domains <= 0]. *)
val map_array : domains:int -> ('a -> 'b) -> 'a array -> 'b array
