(* Tests for the exactness lint (tools/lint/lint_core), the
   domain-safety lint (tools/lint/domain_core) and the dead-export
   rule U1 (tools/lint/unused_core).

   The fixtures under [lint_fixtures/] are tiny known-good/known-bad
   snippets that are parsed by the linter but never compiled (the
   directory has no dune file).  Their paths do not match the repo
   scoping policy, so each test passes the rules it wants explicitly:
   R-fixture tests use [Lint_core.lint_file] with every rule (the R
   pass ignores D rules), D-fixture tests use [Domain_core.lint_file]
   with just the D rule under test, so R and D findings never mix.
   U1 reads compiled units instead: [lint_fixtures/u1] is a small dune
   tree (a library and its bin/, test/ and bench/ callers) whose .cmt
   files the test scans as if it were the project root. *)

open Lint_core

let fixture name = Filename.concat "lint_fixtures" name

let lint name = lint_file ~rules:all_rules (fixture name)

let dlint rules name = Domain_core.lint_file ~rules (fixture name)

let unsuppressed fs = List.filter (fun f -> not f.suppressed) fs

(* (line, rule_id, suppressed) triple for compact assertions. *)
let shape (f : finding) = (f.line, rule_id f.rule, f.suppressed)

let shape_t : (int * string * bool) list Alcotest.testable =
  Alcotest.(list (triple int string bool))

let check_shapes msg expected findings =
  Alcotest.check shape_t msg expected (List.map shape findings)

let test_bad_poly () =
  check_shapes "bad_poly.ml: four R1 findings"
    [ (2, "R1", false); (3, "R1", false); (4, "R1", false); (5, "R1", false) ]
    (lint "bad_poly.ml")

let test_bad_float () =
  check_shapes "bad_float.ml: three R2 findings"
    [ (2, "R2", false); (3, "R2", false); (4, "R2", false) ]
    (lint "bad_float.ml")

let test_bad_nondet () =
  check_shapes "bad_nondet.ml: six R3 findings"
    [
      (2, "R3", false);
      (3, "R3", false);
      (4, "R3", false);
      (5, "R3", false);
      (6, "R3", false);
      (7, "R3", false);
    ]
    (lint "bad_nondet.ml");
  (* The satellite identifiers added to R3 carry dedicated messages. *)
  let messages = List.map (fun f -> f.message) (lint "bad_nondet.ml") in
  Alcotest.(check bool) "Unix.time message" true
    (List.exists
       (fun m -> m = "Unix.time is nondeterministic; confine timing to bench/")
       messages);
  Alcotest.(check bool) "Domain.self message" true
    (List.exists
       (fun m ->
         m
         = "Domain.self depends on runtime scheduling; the tree runs on one domain and never \
            observes domain identity")
       messages)

let test_bad_io () =
  check_shapes "bad_io.ml: one R4 finding at the open_in"
    [ (3, "R4", false) ]
    (lint "bad_io.ml")

let test_good_clean () =
  check_shapes "good_clean.ml: no findings" [] (lint "good_clean.ml")

let test_suppression () =
  (* Same-line [R2], line-above [nondet] mnemonic, bare [allow], and
     one deliberately unsuppressed float literal at the end. *)
  check_shapes "suppressed.ml: three suppressed, one live"
    [ (2, "R2", true); (5, "R3", true); (7, "R1", true); (8, "R2", false) ]
    (lint "suppressed.ml");
  match unsuppressed (lint "suppressed.ml") with
  | [ f ] ->
    Alcotest.(check int) "live finding line" 8 f.line;
    Alcotest.(check string) "live finding rule" "R2" (rule_id f.rule)
  | fs -> Alcotest.failf "expected exactly one live finding, got %d" (List.length fs)

(* ---------------------------------------------------------------- *)
(* Domain-safety rules (D2-D4, tools/lint/domain_core)               *)

let find_message line findings =
  match List.find_opt (fun f -> f.line = line) findings with
  | Some f -> f.message
  | None -> Alcotest.failf "no finding on line %d" line

let test_bad_domain () =
  let fs = dlint [ Domain_prim ] "bad_domain.ml" in
  check_shapes "bad_domain.ml: four D2 findings"
    [ (3, "D2", false); (4, "D2", false); (5, "D2", false); (6, "D2", false) ]
    fs;
  Alcotest.(check string) "D2 message names the primitive"
    "raw Atomic primitive; the tree runs on one domain, so results stay reproducible without \
     a domain-safety argument"
    (find_message 4 fs)

let test_bad_global () =
  let fs = dlint [ Top_mutable ] "bad_global.ml" in
  (* The local ref inside [local_ok] and the never-written array
     [constant] must not be flagged. *)
  check_shapes "bad_global.ml: four D3 findings"
    [ (4, "D3", false); (5, "D3", false); (6, "D3", false); (7, "D3", false) ]
    fs;
  Alcotest.(check string) "top-level-ref message"
    "top-level mutable state (a ref cell) is shared by every domain; thread it through \
     arguments, or allowlist this module if the sharing is the design"
    (find_message 4 fs);
  Alcotest.(check string) "mutated-array message"
    "top-level binding of a fresh array that this module mutates is shared state across \
     domains; thread it through arguments or allowlist this module"
    (find_message 7 fs)

let test_bad_clock () =
  let fs = dlint [ Wall_clock ] "bad_clock.ml" in
  check_shapes "bad_clock.ml: three D4 findings"
    [ (3, "D4", false); (4, "D4", false); (5, "D4", false) ]
    fs;
  Alcotest.(check string) "D4 message"
    "wall-clock read Unix.gettimeofday outside bench/; timing belongs to the benchmark harness"
    (find_message 3 fs)

let test_suppressed_domain () =
  (* Same-line [D3] id, line-above [domain] mnemonic; the Atomic
     binding draws both a D2 and a D3, each silenced by its own
     comment; one live D3 at the end. *)
  check_shapes "suppressed_domain.ml: three suppressed, one live"
    [ (2, "D3", true); (5, "D3", true); (5, "D2", true); (7, "D3", false) ]
    (dlint [ Domain_prim; Top_mutable ] "suppressed_domain.ml")

let has r rules = List.mem r rules

let test_default_rules_scoping () =
  let numeric = default_rules "lib/numeric/bignat.ml" in
  Alcotest.(check bool) "numeric: R1 on" true (has Poly numeric);
  Alcotest.(check bool) "numeric: R2 on" true (has Float_op numeric);
  Alcotest.(check bool) "numeric: R3 on" true (has Nondet numeric);
  Alcotest.(check bool) "numeric: R4 on" true (has Unprotected_io numeric);
  let stats = default_rules "lib/stats/summary.ml" in
  Alcotest.(check bool) "stats: R2 off (float-permitted)" false (has Float_op stats);
  Alcotest.(check bool) "stats: R1 off (not poly-scoped)" false (has Poly stats);
  Alcotest.(check bool) "stats: R4 on" true (has Unprotected_io stats);
  let report = default_rules "lib/experiments/report.ml" in
  Alcotest.(check bool) "report.ml: R2 off" false (has Float_op report);
  let bench = default_rules "bench/bench_numeric.ml" in
  Alcotest.(check bool) "bench: R2 off" false (has Float_op bench);
  Alcotest.(check bool) "bench: R3 off" false (has Nondet bench);
  let experiments = default_rules "lib/experiments/curves.ml" in
  Alcotest.(check bool) "experiments: R2 on (allowlist, not scoping)" true
    (has Float_op experiments);
  (* The incremental evaluation core carries exact rationals and must
     stay under the full numeric scope. *)
  let view = default_rules "lib/model/view.ml" in
  Alcotest.(check bool) "view.ml: R1 on" true (has Poly view);
  Alcotest.(check bool) "view.ml: R2 on" true (has Float_op view);
  (* The load-distribution DP keys a hash table on exact load vectors;
     R1 must cover it so a polymorphic Hashtbl can never sneak in. *)
  let load_dist = default_rules "lib/model/load_dist.ml" in
  Alcotest.(check bool) "load_dist.ml: R1 on" true (has Poly load_dist);
  Alcotest.(check bool) "load_dist.ml: R2 on" true (has Float_op load_dist);
  (* The class-compressed layer (counts + exact rationals) and the
     shared combinatorics module are auto-scoped by directory; pin a
     representative of each so a future re-scoping cannot silently
     drop them. *)
  let cgame = default_rules "lib/model/cgame.ml" in
  Alcotest.(check bool) "cgame.ml: R1 on" true (has Poly cgame);
  Alcotest.(check bool) "cgame.ml: R2 on" true (has Float_op cgame);
  let cview = default_rules "lib/model/cview.ml" in
  Alcotest.(check bool) "cview.ml: R1 on" true (has Poly cview);
  (* Packing owns the load lanes and every exactness-critical cursor
     kernel behind View and Cview: full numeric and domain-safety
     scope. *)
  let packing = default_rules "lib/model/packing.ml" in
  Alcotest.(check bool) "packing.ml: R1 on" true (has Poly packing);
  Alcotest.(check bool) "packing.ml: R2 on" true (has Float_op packing);
  Alcotest.(check bool) "packing.ml: D2 on" true (has Domain_prim packing);
  Alcotest.(check bool) "packing.ml: D3 on" true (has Top_mutable packing);
  Alcotest.(check bool) "packing.ml: D4 on" true (has Wall_clock packing);
  let combinat = default_rules "lib/numeric/combinat.ml" in
  Alcotest.(check bool) "combinat.ml: R1 on" true (has Poly combinat);
  Alcotest.(check bool) "combinat.ml: R2 on" true (has Float_op combinat);
  (* The uncertainty backends price every latency the Nash predicates
     see, so they carry the full exactness scope; the ignorance
     experiment is float only through the allowlist, like the other
     experiment drivers. *)
  let uncertainty = default_rules "lib/model/uncertainty.ml" in
  Alcotest.(check bool) "uncertainty.ml: R1 on" true (has Poly uncertainty);
  Alcotest.(check bool) "uncertainty.ml: R2 on" true (has Float_op uncertainty);
  Alcotest.(check bool) "uncertainty.ml: D2 on" true (has Domain_prim uncertainty);
  let ignorance = default_rules "lib/experiments/ignorance.ml" in
  Alcotest.(check bool) "ignorance.ml: R2 on (allowlist, not scoping)" true
    (has Float_op ignorance);
  Alcotest.(check bool) "ignorance.ml: R1 off (experiments are not poly-scoped)" false
    (has Poly ignorance);
  (* The streaming service layer repairs equilibria and serialises
     exact rationals: full numeric + domain-safety scope, like the
     model core it mutates. *)
  let repair = default_rules "lib/serve/repair.ml" in
  Alcotest.(check bool) "repair.ml: R1 on" true (has Poly repair);
  Alcotest.(check bool) "repair.ml: R2 on" true (has Float_op repair);
  Alcotest.(check bool) "repair.ml: D2 on" true (has Domain_prim repair);
  Alcotest.(check bool) "repair.ml: D4 on" true (has Wall_clock repair);
  let wire = default_rules "lib/serve/wire.ml" in
  Alcotest.(check bool) "wire.ml: R1 on" true (has Poly wire);
  Alcotest.(check bool) "wire.ml: R3 on" true (has Nondet wire);
  (* Domain-safety scoping: D2 applies everywhere (no directory may
     use a concurrency primitive), D3 only under lib/, D4 is off only
     under bench/. *)
  let engine = default_rules "lib/experiments/engine.ml" in
  Alcotest.(check bool) "engine.ml: D2 on" true (has Domain_prim engine);
  Alcotest.(check bool) "engine.ml: D3 on" true (has Top_mutable engine);
  Alcotest.(check bool) "view.ml: D2 on" true (has Domain_prim view);
  Alcotest.(check bool) "view.ml: D3 on" true (has Top_mutable view);
  Alcotest.(check bool) "view.ml: D4 on" true (has Wall_clock view);
  let cli = default_rules "bin/selfish_routing.ml" in
  Alcotest.(check bool) "bin: D2 on" true (has Domain_prim cli);
  Alcotest.(check bool) "bin: D3 off (not a lib module)" false (has Top_mutable cli);
  Alcotest.(check bool) "bin: D4 on" true (has Wall_clock cli);
  Alcotest.(check bool) "bench: D4 off (timing lives here)" false (has Wall_clock bench);
  Alcotest.(check bool) "bench: D2 on" true (has Domain_prim bench)

let test_rule_of_string () =
  let rule_t : rule option Alcotest.testable =
    Alcotest.testable
      (fun ppf r ->
        Format.pp_print_string ppf
          (match r with Some r -> rule_id r | None -> "<none>"))
      ( = ) (* lint: allow R1 — tiny variant type in a test *)
  in
  Alcotest.check rule_t "R1" (Some Poly) (rule_of_string "R1");
  Alcotest.check rule_t "poly" (Some Poly) (rule_of_string "poly");
  Alcotest.check rule_t "FLOAT" (Some Float_op) (rule_of_string "FLOAT");
  Alcotest.check rule_t "r3" (Some Nondet) (rule_of_string "r3");
  Alcotest.check rule_t "io" (Some Unprotected_io) (rule_of_string "io");
  Alcotest.check rule_t "D1 is gone" None (rule_of_string "D1");
  Alcotest.check rule_t "capture is gone" None (rule_of_string "capture");
  Alcotest.check rule_t "d2" (Some Domain_prim) (rule_of_string "d2");
  Alcotest.check rule_t "domain" (Some Domain_prim) (rule_of_string "domain");
  Alcotest.check rule_t "GLOBAL" (Some Top_mutable) (rule_of_string "GLOBAL");
  Alcotest.check rule_t "d3" (Some Top_mutable) (rule_of_string "d3");
  Alcotest.check rule_t "clock" (Some Wall_clock) (rule_of_string "clock");
  Alcotest.check rule_t "d4" (Some Wall_clock) (rule_of_string "d4");
  Alcotest.check rule_t "u1" (Some Unused_export) (rule_of_string "u1");
  Alcotest.check rule_t "unused" (Some Unused_export) (rule_of_string "unused");
  Alcotest.check rule_t "bogus" None (rule_of_string "bogus")

let test_allowlist_exact_path () =
  let entries = parse_allowlist "R2 lint_fixtures/bad_float.ml\n" in
  let fs = apply_allowlist entries (lint "bad_float.ml") in
  Alcotest.(check int) "all R2 findings suppressed" 0 (List.length (unsuppressed fs));
  (* The same entry must not touch a different file. *)
  let other = apply_allowlist entries (lint "bad_nondet.ml") in
  Alcotest.(check int) "bad_nondet untouched" 6 (List.length (unsuppressed other));
  (* D findings go through the same allowlist machinery. *)
  let d_entries = parse_allowlist "D3 lint_fixtures/bad_global.ml\n" in
  let d_fs = apply_allowlist d_entries (dlint [ Top_mutable ] "bad_global.ml") in
  Alcotest.(check int) "D3 entry suppresses bad_global" 0 (List.length (unsuppressed d_fs))

let test_allowlist_wildcard_subtree () =
  let entries = parse_allowlist "# everything under the fixtures\n* lint_fixtures/\n" in
  let all =
    List.concat_map lint
      [ "bad_poly.ml"; "bad_float.ml"; "bad_nondet.ml"; "bad_io.ml" ]
  in
  let fs = apply_allowlist entries all in
  Alcotest.(check int) "subtree wildcard suppresses everything" 0
    (List.length (unsuppressed fs))

(* ---------------------------------------------------------------- *)
(* Dead exports (U1, tools/lint/unused_core)                         *)

let u1_exports = lazy (Unused_core.scan (fixture "u1"))

let u1_export name =
  let full = "U1fix.Exported." ^ name in
  match List.find_opt (fun (e : Unused_core.export) -> e.name = full) (Lazy.force u1_exports) with
  | Some e -> e
  | None -> Alcotest.failf "U1 scan found no export %s" full

let test_u1_classes () =
  let use name = Unused_core.use_name (u1_export name).use in
  Alcotest.(check int) "every fixture export is found" 11 (List.length (Lazy.force u1_exports));
  Alcotest.(check string) "unreferenced" "unused" (use "dead");
  Alcotest.(check bool) "unreferenced is not internal" false (u1_export "dead").internal;
  Alcotest.(check string) "own-unit use only" "unused" (use "internal");
  Alcotest.(check bool) "own-unit use is internal" true (u1_export "internal").internal;
  Alcotest.(check string) "test caller" "test-only" (use "test_only");
  Alcotest.(check string) "bench and test callers" "bench-only" (use "bench_only");
  Alcotest.(check string) "full path (wrapped alias folded)" "used" (use "direct");
  Alcotest.(check string) "through open" "used" (use "via_open");
  Alcotest.(check string) "through let module" "used" (use "via_let_module");
  Alcotest.(check string) "through a module alias" "used" (use "via_alias");
  Alcotest.(check string) "submodule value used" "used" (use "Sub.inner_used");
  Alcotest.(check string) "submodule value unused" "unused" (use "Sub.inner_dead");
  Alcotest.(check string) "allowlisted value is still unused" "unused" (use "allowed");
  let e = u1_export "dead" in
  Alcotest.(check (pair string int)) "reported at the interface"
    ("test/lint_fixtures/u1/lib/exported.mli", 3) (e.file, e.line)

let u1_check allowlist =
  Unused_core.check ~allowlist_file:"allowlist" (parse_allowlist allowlist)
    (Lazy.force u1_exports)

let test_u1_allowlist () =
  let fs = u1_check "U1 U1fix.Exported.allowed hook # fixture value\n" in
  let at line = List.filter (fun f -> f.file = "test/lint_fixtures/u1/lib/exported.mli" && f.line = line) fs in
  (match at 11 with
   | [ f ] -> Alcotest.(check bool) "allowlisted export is suppressed" true f.suppressed
   | _ -> Alcotest.fail "expected one finding for U1fix.Exported.allowed");
  (* A fresh unreferenced export is a live finding: the lint fails. *)
  (match at 3 with
   | [ f ] ->
     Alcotest.(check bool) "unreferenced export is live" false f.suppressed;
     Alcotest.(check string) "U1 rule" "U1" (rule_id f.rule)
   | _ -> Alcotest.fail "expected one finding for U1fix.Exported.dead");
  Alcotest.(check int) "live findings: dead, internal, test_only, bench_only, Sub.inner_dead" 5
    (List.length (unsuppressed fs))

let test_u1_stale_entries () =
  (* Each line names a value that no longer needs it; each is itself
     reported, at its allowlist line, and cannot be suppressed. *)
  let fs =
    u1_check
      "U1 U1fix.Exported.direct oracle # now used\n\
       U1 U1fix.Exported.vanished model-api # no such value\n\
       U1 U1fix.Exported.test_only bench-probe # not a bench caller\n\
       U1 U1fix.Exported.bench_only bench-probe # still probed\n"
  in
  let stale = List.filter (fun f -> f.file = "allowlist") fs in
  check_shapes "three stale entries" [ (1, "U1", false); (2, "U1", false); (3, "U1", false) ] stale;
  Alcotest.(check string) "used-value message"
    "stale allowlist entry: U1 U1fix.Exported.direct names a value that is now used; remove the line"
    (find_message 1 stale);
  Alcotest.(check string) "missing-value message"
    "stale allowlist entry: U1 U1fix.Exported.vanished names no exported lib/ value; remove the line"
    (find_message 2 stale);
  Alcotest.(check string) "class-mismatch message"
    "stale allowlist entry: U1 U1fix.Exported.test_only is a bench-probe but the value is now \
     test-only; remove the line"
    (find_message 3 stale)

let test_u1_allowlist_syntax () =
  let rejects what text =
    match parse_allowlist text with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Failure _ -> ()
  in
  rejects "no reason" "U1 U1fix.Exported.dead # why\n";
  rejects "unknown reason" "U1 U1fix.Exported.dead convenience # why\n";
  rejects "no comment" "U1 U1fix.Exported.dead oracle\n";
  rejects "path form" "U1 lib/\n";
  match parse_allowlist "\n# header\nU1 U1fix.Exported.dead oracle # why\n" with
  | [ e ] ->
    Alcotest.(check (option string)) "reason kept" (Some "oracle") e.al_reason;
    Alcotest.(check int) "line kept" 3 e.al_line
  | _ -> Alcotest.fail "expected one entry"

let test_allowlist_rule_mismatch () =
  let entries = parse_allowlist "R1 lint_fixtures/bad_float.ml\n" in
  let fs = apply_allowlist entries (lint "bad_float.ml") in
  Alcotest.(check int) "R1 entry does not silence R2 findings" 3
    (List.length (unsuppressed fs))

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "bad_poly" `Quick test_bad_poly;
          Alcotest.test_case "bad_float" `Quick test_bad_float;
          Alcotest.test_case "bad_nondet" `Quick test_bad_nondet;
          Alcotest.test_case "bad_io" `Quick test_bad_io;
          Alcotest.test_case "good_clean" `Quick test_good_clean;
          Alcotest.test_case "suppression" `Quick test_suppression;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "bad_domain" `Quick test_bad_domain;
          Alcotest.test_case "bad_global" `Quick test_bad_global;
          Alcotest.test_case "bad_clock" `Quick test_bad_clock;
          Alcotest.test_case "suppressed_domain" `Quick test_suppressed_domain;
        ] );
      ( "policy",
        [
          Alcotest.test_case "default_rules scoping" `Quick test_default_rules_scoping;
          Alcotest.test_case "rule_of_string" `Quick test_rule_of_string;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "exact path" `Quick test_allowlist_exact_path;
          Alcotest.test_case "wildcard subtree" `Quick test_allowlist_wildcard_subtree;
          Alcotest.test_case "rule mismatch" `Quick test_allowlist_rule_mismatch;
        ] );
      ( "dead-exports",
        [
          Alcotest.test_case "classes" `Quick test_u1_classes;
          Alcotest.test_case "allowlisted and live" `Quick test_u1_allowlist;
          Alcotest.test_case "stale allowlist entries" `Quick test_u1_stale_entries;
          Alcotest.test_case "allowlist syntax" `Quick test_u1_allowlist_syntax;
        ] );
    ]
