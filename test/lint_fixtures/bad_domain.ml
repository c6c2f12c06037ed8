(* Fixture: D2 violations — raw concurrency primitives.  Parsed,
   never compiled. *)
let spawn f = Domain.spawn f
let cell = Atomic.make 0
let lock = Mutex.create ()
let cond = Condition.create ()
