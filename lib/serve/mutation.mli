(** Mutations over a class-compressed game, and their batch log.

    The streaming service's workload is a sequence of {e batches}, each
    a list of mutations applied atomically before equilibrium is
    repaired ({!Repair}).  Mutations address classes of the live
    {!Model.Cview} cursor — arrivals and departures revise a class
    count on one link, reweights rewrite a class weight, capacity
    revisions rewrite one effective capacity — exactly the structural
    deltas the view supports.

    The log has a text form (one directive per line, ['#'] comments and
    blank lines ignored, read by {!Model.Game_io}'s line scanner) and a
    binary form ({!Wire}, kind 5):

    {v
    batch
    arrive 0 2 5       # 5 class-0 users arrive on link 2
    depart 1 0 3       # 3 class-1 users leave link 0
    batch
    reweight 0 7/2     # class 0's weight becomes 7/2
    capacity 1 2 9     # class 1's capacity on link 2 becomes 9
    v}

    Every mutation line must follow a [batch] directive; a [batch]
    directive with no mutations is a legal empty batch. *)

type t =
  | Arrive of { cls : int; link : int; count : int }
  | Depart of { cls : int; link : int; count : int }
  | Reweight of { cls : int; weight : Numeric.Rational.t }
  | Revise_capacity of { cls : int; link : int; cap : Numeric.Rational.t }

(** A log is a sequence of batches. *)
type log = t list list

(** [apply v mu] applies [mu] to the live view via the matching
    structural delta ({!Model.Cview.revise_count},
    {!Model.Cview.revise_weight}, {!Model.Cview.revise_capacity}).
    @raise Invalid_argument on a non-positive arrive/depart count or
    whenever the underlying delta rejects the revision. *)
val apply : Model.Cview.t -> t -> unit

(** [parse text] reads the text form.
    @raise Invalid_argument with a message of the form
    ["Mutation: line <n>: ..."] on malformed input, and
    ["Mutation: need at least one 'batch' directive"] on a log with no
    batches. *)
val parse : string -> log

(** [render log] is the canonical text form; [parse (render log) = log]. *)
val render : log -> string
