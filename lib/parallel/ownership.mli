(** The runtime domain-ownership sanitizer, re-exported and documented
    as {!Parallel.Ownership}. *)

exception Violation of string

val enabled : bool ref
val self_id : unit -> int
val unsafe_forge : int option ref
val record : unit -> int
val guard : string -> int -> unit
