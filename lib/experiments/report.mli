(** Shared formatting helpers for experiment tables. *)

(** [pct hits trials] renders e.g. ["100.0%"]. *)
val pct : int -> int -> string

(** [flt x] renders a float with 4 significant digits. *)
val flt : float -> string

(** [heading id title] prints the experiment banner used by
    [bench/main.exe]. *)
val heading : string -> string -> unit
