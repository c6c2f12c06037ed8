(** Domain-safety lint: rules D2–D4 over untyped parse trees (see
    DESIGN.md §15 "Domain-safety contract").

    - [Domain_prim] (D2): raw [Domain]/[Atomic]/[Mutex]/[Condition]/
      [Semaphore] primitives anywhere.
    - [Top_mutable] (D3): top-level mutable state in lib/ modules.
    - [Wall_clock] (D4): wall-clock timing outside bench/.

    Best-effort and syntactic, like {!Lint_core}: unknown constructs
    are trusted, so the pass may miss a case but does not cry wolf. *)

(** [lint_structure ~rules ~path structure] is the raw D2–D4 pass:
    findings unsorted, suppressions NOT yet marked.  Rules outside
    D2–D4 in [rules] are ignored. *)
val lint_structure :
  rules:Lint_core.rule list -> path:string -> Parsetree.structure -> Lint_core.finding list

(** [lint_source ~rules ~path content] parses [content] once and runs
    BOTH passes — {!Lint_core.lint_structure} (R1–R4) and D2–D4 —
    returning merged findings sorted by position with per-site
    [(* lint: allow ... *)] suppressions marked.
    @raise Syntaxerr.Error when the source does not parse. *)
val lint_source : rules:Lint_core.rule list -> path:string -> string -> Lint_core.finding list

(** [lint_file ~rules path] is {!lint_source} on the file's contents. *)
val lint_file : rules:Lint_core.rule list -> string -> Lint_core.finding list
