(* Runtime domain-ownership sanitizer (SELFISH_OWNERSHIP=1).

   The determinism contract requires every mutable structure (the View
   and Cview cursors) to stay domain-local:
   created, mutated and dropped on one domain, with only immutable
   results crossing the fork-join boundary.  The static lint (D1-D4)
   checks this syntactically; this sanitizer checks it dynamically.
   Each guarded structure records the integer id of the creating
   domain at construction, and every mutating entry point calls
   [guard], which raises [Violation] when the calling domain differs.

   Mirrors Numeric.Sanitize: disabled (zero-cost bool test) unless the
   environment opts in, with unsafe forgery hooks so tests can pin the
   failure message without actually racing. *)

exception Violation of string

(* D3: the enable flag and forgery hook are deliberate global state —
   read-mostly, set before any domain spawns (allowlisted). *)
let enabled =
  ref
    (match Sys.getenv_opt "SELFISH_OWNERSHIP" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

let self_id () = (Domain.self () :> int)

(* When set, [record] stamps new structures with this id instead of
   the real one, so a single-domain test can fake a foreign owner. *)
let unsafe_forge : int option ref = ref None

let record () = match !unsafe_forge with Some id -> id | None -> self_id ()

let fail what ~owner ~caller =
  raise
    (Violation
       (Printf.sprintf "SELFISH_OWNERSHIP: %s created on domain %d mutated from domain %d" what
          owner caller))

let guard what owner =
  if !enabled then begin
    let caller = self_id () in
    if caller <> owner then fail what ~owner ~caller
  end
