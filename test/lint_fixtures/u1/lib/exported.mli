(* One value per U1 case; u1/bin, u1/test and u1/bench hold the callers. *)

val dead : int (* referenced nowhere: unused *)
val internal : int -> int (* used only inside this unit: unused *)
val test_only : int (* referenced only from test/ *)
val bench_only : int (* referenced from bench/ and test/ *)
val direct : int (* referenced from bin/ by its full path *)
val via_open : int (* referenced from bin/ only through an open *)
val via_let_module : int (* referenced from bin/ only through a let module alias *)
val via_alias : int (* referenced from bin/ only through a top-level module alias *)
val allowed : int (* unused, but allowlisted *)

module Sub : sig
  val inner_used : int (* a submodule value referenced from bin/ *)
  val inner_dead : int (* a submodule value referenced nowhere *)
end
