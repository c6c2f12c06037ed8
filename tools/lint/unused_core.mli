(** Dead-export lint: rule U1 over a dune build context's compiled
    [.cmt]/[.cmti] files (see DESIGN.md §10 "Static guarantees").

    Every exported value of a unit compiled from [lib/] is classified
    by who references it from outside its own compilation unit.
    References are resolved [Path.t]s: wrapped-library aliases fold
    ([Numeric__Rational.x] is [Numeric.Rational.x]), [open]s and local
    module aliases ([module M = P], [let module M = P in]) are
    followed, and submodule values ([Model.Mixed.Eval.make]) are
    exports in their own right. *)

type use =
  | Used  (** referenced from lib/, bin/, examples/ or tools/ *)
  | Unused  (** referenced from nowhere outside its unit *)
  | Test_only  (** referenced only from test/ *)
  | Bench_only  (** referenced from bench/ (and perhaps test/) only *)

(** ["used"], ["unused"], ["test-only"], ["bench-only"]. *)
val use_name : use -> string

type export = {
  name : string;  (** dotted, library-qualified: [Numeric.Rational.mean] *)
  file : string;  (** the declaring source, relative to the context root *)
  line : int;
  col : int;
  use : use;
  internal : bool;  (** referenced inside its own unit *)
}

(** [scan root] reads every compiled unit under the build context
    [root] (skipping nested [_build] directories) and returns the
    exports of its [lib/] units sorted by name.  A unit's role is the
    first directory of its objects under [root]. *)
val scan : string -> export list

(** [check ~allowlist_file entries exports] is one U1 finding per
    export that is not {!Used}, suppressed when a [U1] entry names it,
    plus one unsuppressed finding (at [allowlist_file], the entry's
    line) for each [U1] entry that names no export, a used one, or —
    for a [bench-probe] — one that is no longer bench-only. *)
val check :
  allowlist_file:string -> Lint_core.allowlist_entry list -> export list -> Lint_core.finding list
