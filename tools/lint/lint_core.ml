(* Exactness lint for the selfish_routing tree.

   A purely syntactic pass over untyped parse trees (compiler-libs
   [Parse.implementation] + [Ast_iterator]); no type information is
   available, so every rule is a best-effort pattern on identifiers and
   literals.  The rules encode the repo's exactness contract (DESIGN
   §"Why exact arithmetic" and §10 "Static guarantees"):

     R1 (poly)   polymorphic comparison/hashing in modules that handle
                 numeric-tower values: [Stdlib.compare] (or bare
                 [compare] in files that do not define their own),
                 [Hashtbl.hash]/[seeded_hash]/[hash_param], any value
                 from the polymorphic [Hashtbl] module, and [=]/[<>]
                 applied to an operand that syntactically comes from a
                 numeric-tower module.
     R2 (float)  float literals, the [+.]/[-.]/[*.]/[/.]/[**]
                 operators, and [Float.*] values.
     R3 (nondet) ambient nondeterminism: [Random.*], [Sys.time],
                 [Unix.time], [Unix.gettimeofday] and [Domain.self].
     R4 (io)     [open_in*]/[open_out*] (and [In_channel.open_*] /
                 [Out_channel.open_*]) in a top-level binding that
                 never mentions [Fun.protect].

   The domain-safety rules D2-D4 share this module's finding type,
   scoping policy and suppression machinery; their analysis lives in
   [Domain_core] (ids are stable, so the retired D1 leaves a gap):

     D2 (domain)  raw Domain/Atomic/Mutex/Condition primitives.
     D3 (global)  top-level mutable state in lib/ modules.
     D4 (clock)   wall-clock timing outside bench/.

   The dead-export rule U1 shares the finding type and the allowlist
   file; its typed, whole-program analysis lives in [Unused_core]:

     U1 (unused)  an exported value of a lib/ unit that nothing outside
                  its own compilation unit references, or that only
                  test/ or bench/ code does.

   Suppression: a [(* lint: allow *)] comment (optionally naming rules,
   e.g. [(* lint: allow R2 nondet *)]) on the flagged line or the line
   directly above silences matching findings at that site; an allowlist
   file silences whole files per rule for incremental adoption. *)

type rule =
  | Poly
  | Float_op
  | Nondet
  | Unprotected_io
  | Domain_prim
  | Top_mutable
  | Wall_clock
  | Unused_export

let all_rules =
  [
    Poly; Float_op; Nondet; Unprotected_io; Domain_prim; Top_mutable; Wall_clock; Unused_export;
  ]

let rule_id = function
  | Poly -> "R1"
  | Float_op -> "R2"
  | Nondet -> "R3"
  | Unprotected_io -> "R4"
  | Domain_prim -> "D2"
  | Top_mutable -> "D3"
  | Wall_clock -> "D4"
  | Unused_export -> "U1"

let rule_mnemonic = function
  | Poly -> "poly"
  | Float_op -> "float"
  | Nondet -> "nondet"
  | Unprotected_io -> "io"
  | Domain_prim -> "domain"
  | Top_mutable -> "global"
  | Wall_clock -> "clock"
  | Unused_export -> "unused"

let rule_of_string s =
  match String.lowercase_ascii s with
  | "r1" | "poly" -> Some Poly
  | "r2" | "float" -> Some Float_op
  | "r3" | "nondet" -> Some Nondet
  | "r4" | "io" -> Some Unprotected_io
  | "d2" | "domain" -> Some Domain_prim
  | "d3" | "global" -> Some Top_mutable
  | "d4" | "clock" -> Some Wall_clock
  | "u1" | "unused" -> Some Unused_export
  | _ -> None

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
  suppressed : bool;
}

(* ------------------------------------------------------------------ *)
(* Path scoping: which rules a file is subject to by default.          *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let normalize_path p =
  if has_prefix ~prefix:"./" p then String.sub p 2 (String.length p - 2) else p

(* Modules whose values flow through Nash predicates: polymorphic
   structural operations there risk diverging from the numeric
   tower's canonical equality. *)
let poly_scoped_dirs =
  [ "lib/numeric/"; "lib/model/"; "lib/algo/"; "lib/kp/"; "lib/serve/" ]

(* Float arithmetic is legitimate only in the statistics layer, the
   report renderer and the benchmarks. *)
let float_allowed_dirs = [ "lib/stats/"; "bench/" ]
let float_allowed_files = [ "lib/experiments/report.ml" ]

(* Ambient clocks/PRNGs would break [Rng.of_path] replayability
   everywhere except the benchmarks. *)
let nondet_allowed_dirs = [ "bench/" ]

(* Wall-clock reads are measurement, and measurement lives in bench/;
   lib/experiments/scaling.ml is the documented allowlist exception. *)
let wall_clock_allowed_dirs = [ "bench/" ]

(* Top-level mutable state is the canonical cross-domain race; only
   library modules are scoped (bin/ drivers parse CLI flags into refs,
   which never cross a domain). *)
let top_mutable_scoped_dirs = [ "lib/" ]

let default_rules path =
  let path = normalize_path path in
  let in_any dirs = List.exists (fun d -> has_prefix ~prefix:d path) dirs in
  List.concat
    [
      (if in_any poly_scoped_dirs then [ Poly ] else []);
      (if in_any float_allowed_dirs || List.mem path float_allowed_files then []
       else [ Float_op ]);
      (if in_any nondet_allowed_dirs then [] else [ Nondet ]);
      [ Unprotected_io; Domain_prim ];
      (if in_any top_mutable_scoped_dirs then [ Top_mutable ] else []);
      (if in_any wall_clock_allowed_dirs then [] else [ Wall_clock ]);
    ]

(* ------------------------------------------------------------------ *)
(* Suppression comments                                                *)

let substring_index s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* [allow_rules_on_line l] is [None] when the line carries no
   suppression comment, [Some []] for a bare [(* lint: allow *)]
   (silences every rule) and [Some rules] for a rule-qualified one. *)
let allow_rules_on_line line =
  match substring_index line "lint:" with
  | None -> None
  | Some i ->
    let after = String.sub line (i + 5) (String.length line - i - 5) in
    let after = String.trim after in
    if not (has_prefix ~prefix:"allow" after) then None
    else begin
      let rest = String.sub after 5 (String.length after - 5) in
      let rest =
        match substring_index rest "*)" with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      let tokens =
        String.split_on_char ' ' rest
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      in
      Some (List.filter_map rule_of_string tokens)
    end

(* ------------------------------------------------------------------ *)
(* The AST pass                                                        *)

open Parsetree

(* Roots of the exact numeric tower as seen from call sites. *)
let numeric_modules = [ "Rational"; "Bigint"; "Bignat"; "Qvec"; "Qmat"; "Simplex"; "Numeric" ]

(* Functions of those modules that do NOT return a tower value, so a
   [=] whose operand heads here compares ints/bools/strings and is
   fine.  Untyped heuristic: err on the quiet side. *)
let non_tower_returning =
  [
    "compare"; "equal"; "hash"; "sign"; "is_zero"; "is_one"; "is_integer"; "is_native";
    "is_distribution"; "is_positive_distribution"; "to_int_opt"; "to_int_exn"; "to_float";
    "to_string"; "to_decimal_string"; "num_limbs"; "num_bits"; "size"; "dim"; "rows"; "cols";
    "min_index"; "max_index"; "pp";
  ]

let rec head_longident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_apply (f, _) -> head_longident f
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_longident e
  | _ -> None

let operand_is_tower_value e =
  match head_longident e with
  | None -> false
  | Some li ->
    (match Longident.flatten li with
     | root :: (_ :: _ as rest) when List.mem root numeric_modules ->
       let last = List.nth rest (List.length rest - 1) in
       not (List.mem last non_tower_returning)
     | _ -> false)

let channel_openers =
  [ "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin"; "open_out_gen" ]

let float_operators = [ "+."; "-."; "*."; "/."; "**" ]

let lint_structure ~rules ~path structure =
  let findings = ref [] in
  let has r = List.mem r rules in
  let report rule loc msg =
    let p = loc.Location.loc_start in
    findings :=
      {
        file = normalize_path path;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        rule;
        message = msg;
        suppressed = false;
      }
      :: !findings
  in
  (* Bare [compare] in a file that binds its own [compare] anywhere
     (top level or in a submodule — the numeric modules do) refers to
     the monomorphic local one; only flag it in files that never bind
     the name.  Over-approximates scope, which errs on the quiet
     side for an untyped pass. *)
  let file_defines name =
    let found = ref false in
    let super = Ast_iterator.default_iterator in
    let value_binding self vb =
      (match vb.pvb_pat.ppat_desc with
       | Ppat_var { txt; _ } when txt = name -> found := true
       | _ -> ());
      super.value_binding self vb
    in
    let it = { super with value_binding } in
    List.iter (fun item -> it.structure_item it item) structure;
    !found
  in
  let local_compare = file_defines "compare" in
  (* R4 bookkeeping: candidate open_* sites per top-level item, and the
     set of items that mention Fun.protect anywhere. *)
  let item_index = ref (-1) in
  let protected_items = Hashtbl.create 16 in
  let r4_pending = ref [] in
  let check_ident li loc =
    let raw = Longident.flatten li in
    let qualified_stdlib = match raw with "Stdlib" :: _ -> true | _ -> false in
    let parts = match raw with "Stdlib" :: rest -> rest | parts -> parts in
    (* R1: polymorphic compare / hash / Hashtbl *)
    (match parts with
     | [ "compare" ] when has Poly && (qualified_stdlib || not local_compare) ->
       report Poly loc
         "polymorphic compare on unknown types; use the module's typed compare \
          (Rational.compare, Int.compare, ...)"
     | [ ("=" | "<>" | "<" | "<=" | ">" | ">=") as op ] when has Poly && qualified_stdlib ->
       report Poly loc
         (Printf.sprintf
            "explicitly polymorphic Stdlib.( %s ); use the typed equality/order of the operand \
             type" op)
     | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] when has Poly ->
       report Poly loc
         "Hashtbl.hash is representation-polymorphic (and truncates big structures); hash \
          canonical contents explicitly (Bigint.hash, Bignat.hash, ...)"
     | [ "Hashtbl"; f ] when has Poly && f.[0] >= 'a' && f.[0] <= 'z' ->
       report Poly loc
         (Printf.sprintf
            "polymorphic Hashtbl.%s keys with Hashtbl.hash/compare; use Hashtbl.Make with \
             explicit equal/hash" f)
     | _ -> ());
    (* R2: float operators and the Float module *)
    (match parts with
     | [ op ] when has Float_op && List.mem op float_operators ->
       report Float_op loc (Printf.sprintf "float operator ( %s ) outside the float-permitted modules" op)
     | "Float" :: _ :: _ when has Float_op ->
       report Float_op loc "Float module operation outside the float-permitted modules"
     | _ -> ());
    (* R3: ambient nondeterminism *)
    (match parts with
     | "Random" :: _ :: _ when has Nondet ->
       report Nondet loc
         "ambient Stdlib.Random breaks Rng.of_path determinism; draw from an explicit Prng.Rng \
          stream"
     | [ "Sys"; "time" ] when has Nondet ->
       report Nondet loc "Sys.time is nondeterministic; confine timing to bench/"
     | [ "Unix"; "gettimeofday" ] when has Nondet ->
       report Nondet loc "Unix.gettimeofday is nondeterministic; confine timing to bench/"
     | [ "Unix"; "time" ] when has Nondet ->
       report Nondet loc "Unix.time is nondeterministic; confine timing to bench/"
     | [ "Domain"; "self" ] when has Nondet ->
       report Nondet loc
         "Domain.self depends on runtime scheduling; the tree runs on one domain and never \
          observes domain identity"
     | _ -> ());
    (* R4: channel opens, resolved per top-level item afterwards *)
    (match parts with
     | [ f ] when has Unprotected_io && List.mem f channel_openers ->
       r4_pending :=
         ( !item_index,
           loc,
           Printf.sprintf
             "%s with no Fun.protect in the same top-level binding; wrap it so the channel \
              closes when reading raises" f )
         :: !r4_pending
     | [ ("In_channel" | "Out_channel") as m; f ]
       when has Unprotected_io && has_prefix ~prefix:"open_" f ->
       r4_pending :=
         ( !item_index,
           loc,
           Printf.sprintf
             "%s.%s with no Fun.protect in the same top-level binding; wrap it so the channel \
              closes when reading raises" m f )
         :: !r4_pending
     | [ "Fun"; "protect" ] -> Hashtbl.replace protected_items !item_index ()
     | _ -> ())
  in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
     | Pexp_constant (Pconst_float _) when has Float_op ->
       report Float_op e.pexp_loc "float literal outside the float-permitted modules"
     | Pexp_ident { txt; loc } -> check_ident txt loc
     | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc }; _ }, args)
       when has Poly ->
       if List.exists (fun (_, a) -> operand_is_tower_value a) args then
         report Poly loc
           (Printf.sprintf
              "polymorphic ( %s ) on a numeric-tower value; use Rational.equal / Bigint.equal \
               / ..." op)
     | _ -> ());
    super.expr self e
  in
  let pat self p =
    (match p.ppat_desc with
     | Ppat_constant (Pconst_float _) when has Float_op ->
       report Float_op p.ppat_loc "float literal pattern outside the float-permitted modules"
     | _ -> ());
    super.pat self p
  in
  let iterator = { super with expr; pat } in
  List.iteri
    (fun i item ->
      item_index := i;
      iterator.structure_item iterator item)
    structure;
  List.iter
    (fun (item, loc, msg) ->
      if not (Hashtbl.mem protected_items item) then report Unprotected_io loc msg)
    !r4_pending;
  !findings

(* Per-site suppression: an allow comment on the finding's line or the
   line directly above.  Shared by this pass and [Domain_core]'s, so
   every rule family obeys the same comment forms. *)
let mark_suppressions content_lines findings =
  let line_text l =
    if l >= 1 && l <= Array.length content_lines then Some content_lines.(l - 1) else None
  in
  let allow_at l = match line_text l with None -> None | Some s -> allow_rules_on_line s in
  (* The line-above form only counts when the comment stands alone on
     its line; a trailing comment suppresses its own line only. *)
  let allow_above l =
    match line_text l with
    | Some s when has_prefix ~prefix:"(*" (String.trim s) -> allow_rules_on_line s
    | Some _ | None -> None
  in
  let is_suppressed f =
    let covers = function None -> false | Some [] -> true | Some rs -> List.mem f.rule rs in
    covers (allow_at f.line) || covers (allow_above (f.line - 1))
  in
  findings
  |> List.map (fun f -> { f with suppressed = is_suppressed f })
  |> List.sort (fun a b ->
         match Int.compare a.line b.line with 0 -> Int.compare a.col b.col | c -> c)

let parse_source ~path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let content_lines content = Array.of_list (String.split_on_char '\n' content)

let lint_source ~rules ~path content =
  let structure = parse_source ~path content in
  mark_suppressions (content_lines content) (lint_structure ~rules ~path structure)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ~rules path = lint_source ~rules ~path (read_file path)

(* ------------------------------------------------------------------ *)
(* Allowlist                                                           *)

type allowlist_entry = {
  al_rule : rule option;
  al_path : string;
  al_reason : string option;
  al_line : int;
}

let u1_reasons = [ "model-api"; "oracle"; "hook"; "bench-probe" ]

(* [<rule> <path>] silences a file or subtree; a U1 line names one
   exported value instead, with a reason class and a comment:
   [U1 <Lib.Module.value> <reason> # why]. *)
let parse_allowlist content =
  String.split_on_char '\n' content
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.concat_map (fun (al_line, line) ->
         let line, comment =
           match String.index_opt line '#' with
           | Some i -> (String.sub line 0 i, String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> (line, "")
         in
         let malformed want =
           failwith (Printf.sprintf "allowlist: malformed line %d %S (want: %s)" al_line line want)
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun t -> t <> "")
         with
         | [] -> []
         | rule_tok :: rest when rule_of_string rule_tok = Some Unused_export -> (
           match rest with
           | [ name; reason ] when List.mem reason u1_reasons && comment <> "" ->
             [ { al_rule = Some Unused_export; al_path = name; al_reason = Some reason; al_line } ]
           | _ ->
             malformed
               (Printf.sprintf "U1 <Lib.Module.value> <%s> # comment" (String.concat "|" u1_reasons)))
         | [ rule_tok; path ] ->
           let al_rule =
             if rule_tok = "*" then None
             else
               match rule_of_string rule_tok with
               | Some r -> Some r
               | None -> failwith (Printf.sprintf "allowlist: unknown rule %S" rule_tok)
           in
           [ { al_rule; al_path = normalize_path path; al_reason = None; al_line } ]
         | _ -> malformed "<rule> <path>")

let load_allowlist path = parse_allowlist (read_file path)

(* U1 findings are silenced only by U1 value lines ([Unused_core.check]). *)
let entry_matches entry f =
  f.rule <> Unused_export
  && (match entry.al_rule with None -> true | Some r -> r = f.rule)
  &&
  let p = entry.al_path in
  if String.length p > 0 && p.[String.length p - 1] = '/' then has_prefix ~prefix:p f.file
  else p = f.file

let apply_allowlist entries findings =
  List.map
    (fun f ->
      if f.suppressed then f
      else { f with suppressed = List.exists (fun e -> entry_matches e f) entries })
    findings
