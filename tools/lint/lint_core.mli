(** Exactness lint: syntactic rules over untyped parse trees.

    Rules (see DESIGN.md §10 "Static guarantees" and §15 "Domain-safety
    contract"):
    - [Poly] (R1): polymorphic compare/hash/Hashtbl in numeric-scoped
      modules.
    - [Float_op] (R2): float literals/operators/[Float.*] outside the
      float-permitted modules.
    - [Nondet] (R3): ambient [Random]/[Sys.time]/[Unix.time]/
      [Unix.gettimeofday] and [Domain.self].
    - [Unprotected_io] (R4): channel opens with no [Fun.protect] in
      the same top-level binding.
    - [Domain_prim] (D2): raw [Domain]/[Atomic]/[Mutex]/[Condition]/
      [Semaphore] primitives anywhere — analysis in {!Domain_core}.
    - [Top_mutable] (D3): top-level mutable state in [lib/] modules —
      analysis in {!Domain_core}.
    - [Wall_clock] (D4): wall-clock timing outside [bench/] — analysis
      in {!Domain_core}.
    - [Unused_export] (U1): an exported value of a [lib/] unit with no
      reference from outside its own compilation unit, or with
      references only from [test/] or [bench/] — a typed,
      whole-program pass over the compiled tree in {!Unused_core}.
      Only [U1] allowlist lines, each naming one value with a reason
      class, silence it.

    This module's own pass implements R1–R4 only; use
    {!Domain_core.lint_file} for the combined R+D pass. *)

type rule =
  | Poly
  | Float_op
  | Nondet
  | Unprotected_io
  | Domain_prim
  | Top_mutable
  | Wall_clock
  | Unused_export

val all_rules : rule list

(** [rule_id r] is the stable identifier ("R1".."R4", "D2".."D4", "U1"). *)
val rule_id : rule -> string

(** [rule_mnemonic r] is the short name accepted in allow comments
    ("poly", "float", "nondet", "io", "domain", "global", "clock",
    "unused"). *)
val rule_mnemonic : rule -> string

(** [rule_of_string s] accepts ids and mnemonics, case-insensitive. *)
val rule_of_string : string -> rule option

type finding = {
  file : string;  (** normalized path as given to the linter *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : rule;
  message : string;
  suppressed : bool;  (** silenced by an allow comment or allowlist *)
}

(** [has_prefix ~prefix s] is whether [s] starts with [prefix]. *)
val has_prefix : prefix:string -> string -> bool

(** [default_rules path] is the repo scoping policy: which rules apply
    to [path] (relative to the repo root). *)
val default_rules : string -> rule list

(** [lint_structure ~rules ~path structure] is the raw R1–R4 pass over
    a parsed implementation: findings in discovery order, suppressions
    NOT yet marked.  Compose with {!mark_suppressions}. *)
val lint_structure : rules:rule list -> path:string -> Parsetree.structure -> finding list

(** [mark_suppressions lines findings] marks findings silenced by a
    per-site [(* lint: allow ... *)] comment (same line, or standing
    alone on the line above) and sorts by position. *)
val mark_suppressions : string array -> finding list -> finding list

(** [parse_source ~path content] parses [content] as an implementation
    file, attributing locations to [path].
    @raise Syntaxerr.Error when the source does not parse. *)
val parse_source : path:string -> string -> Parsetree.structure

(** [content_lines content] splits a source string for
    {!mark_suppressions}. *)
val content_lines : string -> string array

(** [lint_source ~rules ~path content] parses [content] as an
    implementation file and returns R1–R4 findings sorted by position,
    with per-site [(* lint: allow ... *)] suppressions already marked.
    @raise Syntaxerr.Error when the source does not parse. *)
val lint_source : rules:rule list -> path:string -> string -> finding list

(** [lint_file ~rules path] is [lint_source] on the file's contents. *)
val lint_file : rules:rule list -> string -> finding list

(** [read_file path] reads a whole file (binary-safe). *)
val read_file : string -> string

type allowlist_entry = {
  al_rule : rule option;  (** [None] for [*] *)
  al_path : string;  (** a path, or for [U1] the value's dotted name *)
  al_reason : string option;  (** the [U1] reason class *)
  al_line : int;  (** 1-based line in the allowlist file *)
}

(** The reason classes a [U1] line may give: [model-api] (the paper's
    model API), [oracle] (a test oracle), [hook] (a test hook) and
    [bench-probe] (probed by the benchmark). *)
val u1_reasons : string list

val load_allowlist : string -> allowlist_entry list

val parse_allowlist : string -> allowlist_entry list

(** [apply_allowlist entries findings] marks matching findings
    suppressed (never unsuppresses).  [U1] findings are left to
    {!Unused_core.check}. *)
val apply_allowlist : allowlist_entry list -> finding list -> finding list
