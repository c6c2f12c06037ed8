(* Domain-safety lint for the selfish_routing tree: rules D2-D4.

   Every computation in the tree runs on one domain: the experiment
   grid ([Experiments.Engine]) is a serial loop, and no algorithm
   forks.  Nothing in the compiler keeps it that way, so this pass
   encodes it syntactically, in the same untyped best-effort style as
   [Lint_core] (DESIGN §15):

     D2 (domain)  [Domain]/[Atomic]/[Mutex]/[Condition]/[Semaphore]
                  primitives are forbidden everywhere: the tree has no
                  sanctioned concurrency surface.
     D3 (global)  no top-level mutable state ([let r = ref …],
                  top-level [Hashtbl.create]/[Buffer.create]/array
                  bindings) in lib/ modules outside the documented
                  allowlist: a hidden global cache is what a future
                  parallel caller would race on.
     D4 (clock)   wall-clock reads ([Unix.gettimeofday], [Unix.time],
                  [Sys.time]) are confined to bench/.

   Bindings are classified by the syntactic head of their right-hand
   side, and anything the pass cannot see is trusted: the pass errs on
   the quiet side, like R1-R4.  Findings reuse
   [Lint_core]'s type, suppression comments and allowlist. *)

open Parsetree
open Lint_core

let normalize_path p =
  if has_prefix ~prefix:"./" p then String.sub p 2 (String.length p - 2) else p

(* ------------------------------------------------------------------ *)
(* Identifier heads                                                    *)

let rec head_longident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_apply (f, _) -> head_longident f
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_longident e
  | Pexp_open (_, e) -> head_longident e
  | _ -> None

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let last2 parts =
  match List.rev parts with f :: m :: _ -> Some (m, f) | _ -> None

(* ------------------------------------------------------------------ *)
(* Mutable-construct classification                                    *)

let container_modules = [ "Hashtbl"; "Buffer"; "Queue"; "Stack" ]

(* Constructors returning records with mutable fields (matched on the
   last two path components, so [Model.View.of_profile] counts too). *)
let cursor_constructors =
  [
    (("View", "of_profile"), "a View cursor (mutable load state)");
    (("Cview", "of_profile"), "a Cview cursor (mutable load state)");
  ]

type mutability =
  | Strong of string  (* mutable whatever happens: ref, Hashtbl.create, … *)
  | Weak of string  (* an array: racy only when something in the file writes it *)

let rec classify ~ht_modules e =
  match e.pexp_desc with
  | Pexp_array _ -> Some (Weak "an array literal")
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> classify ~ht_modules e
  (* Only applications construct: a bare [let init = Array.init] is a
     function alias, not a fresh array. *)
  | Pexp_apply _ ->
    (match head_longident e with
     | None -> None
     | Some li ->
       let parts = strip_stdlib (Longident.flatten li) in
       (match parts with
        | [ "ref" ] -> Some (Strong "a ref cell")
        | [ m; "create" ] when List.mem m container_modules || List.mem m !ht_modules ->
          Some (Strong (m ^ ".create"))
        | [ "Atomic"; "make" ] -> Some (Strong "an Atomic.t")
        | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "of_seq") ]
        | [ "Bytes"; ("make" | "create" | "init") ] ->
          Some (Weak "a fresh array")
        | _ ->
          (match last2 parts with
           | Some key ->
             (match List.assoc_opt key cursor_constructors with
              | Some reason -> Some (Strong reason)
              | None -> None)
           | None -> None)))
  | _ -> None

(* [array_write e] is [Some name] when [e] writes through the array
   bound to [name]: [name.(i) <- …] (the parser desugars index
   assignment to [Array.set]) or an [Array]/[Bytes] set, fill or blit
   with [name] as its first argument. *)
let array_write e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt; _ }; _ },
        (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) :: _ ) -> (
    match strip_stdlib (Longident.flatten txt) with
    | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> Some x
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pre-passes: local Hashtbl.Make instances, arrays written anywhere.  *)

let collect_ht_modules structure =
  let mods = ref [] in
  let super = Ast_iterator.default_iterator in
  let module_binding self mb =
    (match mb.pmb_name.txt, mb.pmb_expr.pmod_desc with
     | Some name, Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _)
       when (match Longident.flatten txt with
             | [ "Hashtbl"; ("Make" | "MakeSeeded") ] -> true
             | _ -> false) ->
       mods := name :: !mods
     | _ -> ());
    super.module_binding self mb
  in
  let it = { super with module_binding } in
  List.iter (fun item -> it.structure_item it item) structure;
  mods

let collect_mutated structure =
  let tbl = Hashtbl.create 16 in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match array_write e with Some x -> Hashtbl.replace tbl x () | None -> ());
    super.expr self e
  in
  let it = { super with expr } in
  List.iter (fun item -> it.structure_item it item) structure;
  tbl

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)

let pattern_vars p =
  let vars = ref [] in
  let super = Ast_iterator.default_iterator in
  let pat self p =
    (match p.ppat_desc with
     | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> vars := txt :: !vars
     | _ -> ());
    super.pat self p
  in
  let it = { super with pat } in
  it.pat it p;
  !vars

let lint_structure ~rules ~path structure =
  let has r = List.mem r rules in
  let findings = ref [] in
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
  let ht_modules = collect_ht_modules structure in
  let file_mutated = collect_mutated structure in
  (* D2/D4: plain identifier rules, checked on every expression. *)
  let check_ident li loc =
    let parts = strip_stdlib (Longident.flatten li) in
    (match parts with
     | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ :: _
       when has Domain_prim ->
       report Domain_prim loc
         (Printf.sprintf
            "raw %s primitive; the tree runs on one domain, so results stay reproducible \
             without a domain-safety argument"
            (List.hd parts))
     | _ -> ());
    match parts with
    | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] when has Wall_clock ->
      report Wall_clock loc
        (Printf.sprintf "wall-clock read %s outside bench/; timing belongs to the benchmark \
                         harness" (String.concat "." parts))
    | _ -> ()
  in
  (* D3: top-level value bindings, in the file and in its nested
     module structures. *)
  let check_top vb =
    let written_in_file () =
      (* A top-level array nothing in the module writes is a
         constant; only flag arrays the file mutates. *)
      match pattern_vars vb.pvb_pat with
      | [ x ] -> Hashtbl.mem file_mutated x
      | _ -> false
    in
    match classify ~ht_modules vb.pvb_expr with
    | Some (Strong reason) ->
      report Top_mutable vb.pvb_loc
        (Printf.sprintf
           "top-level mutable state (%s) is shared by every domain; thread it through \
            arguments, or allowlist this module if the sharing is the design"
           reason)
    | Some (Weak reason) when written_in_file () ->
      report Top_mutable vb.pvb_loc
        (Printf.sprintf
           "top-level binding of %s that this module mutates is shared state across \
            domains; thread it through arguments or allowlist this module"
           reason)
    | Some (Weak _) | None -> ()
  in
  let rec top_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter check_top vbs
    | Pstr_module { pmb_expr; _ } | Pstr_include { pincl_mod = pmb_expr; _ } -> top_module pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> top_module mb.pmb_expr) mbs
    | _ -> ()
  and top_module me =
    match me.pmod_desc with
    | Pmod_structure items -> List.iter top_item items
    | Pmod_functor (_, body) | Pmod_constraint (body, _) -> top_module body
    | Pmod_apply (f, a) ->
      top_module f;
      top_module a
    | _ -> ()
  in
  if has Top_mutable then List.iter top_item structure;
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with Pexp_ident { txt; loc } -> check_ident txt loc | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  List.iter (fun item -> it.structure_item it item) structure;
  !findings

(* ------------------------------------------------------------------ *)
(* Combined entry points: R1-R4 + D2-D4 on one parse.                  *)

let lint_source ~rules ~path content =
  let structure = Lint_core.parse_source ~path content in
  let r_findings = Lint_core.lint_structure ~rules ~path structure in
  let d_findings = lint_structure ~rules ~path structure in
  Lint_core.mark_suppressions (Lint_core.content_lines content) (r_findings @ d_findings)

let lint_file ~rules path = lint_source ~rules ~path (Lint_core.read_file path)
