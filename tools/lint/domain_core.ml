(* Domain-safety lint for the selfish_routing tree: rules D1-D4.

   The determinism contract — results bit-identical for any
   [--domains] — holds because every closure shipped to a worker
   domain is pure with respect to shared state: it builds its own
   views, tables and accumulators, and the only cross-domain
   communication is the fork-join result array.  Nothing in the
   compiler enforces that, so this pass encodes it syntactically, in
   the same untyped best-effort style as [Lint_core] (DESIGN §15):

     D1 (capture) closures passed to the parallel entry points
                  ([Parallel.map_array]/[fork_join] and the task grid
                  [Engine.sweep]/[map_tasks]; every algorithm below
                  them is serial) must not capture identifiers bound
                  outside the closure to mutable constructs ([ref],
                  [Hashtbl]/[Buffer]/[Queue]/[Stack] values — incl.
                  project-local [Hashtbl.Make] functor instances —
                  [View]/[Cview] cursors, arrays that the file
                  mutates), and must not themselves mutate anything
                  they captured.
     D2 (domain)  [Domain]/[Atomic]/[Mutex]/[Condition]/[Semaphore]
                  primitives are forbidden outside lib/parallel: the
                  fork-join layer is the only sanctioned concurrency
                  surface.
     D3 (global)  no top-level mutable state ([let r = ref …],
                  top-level [Hashtbl.create]/[Buffer.create]/array
                  bindings) in lib/ modules outside the documented
                  allowlist — a hidden global cache is the canonical
                  cross-domain race.
     D4 (clock)   wall-clock reads ([Unix.gettimeofday], [Unix.time],
                  [Sys.time]) are confined to bench/.

   Scope tracking is deliberately simple: let-bindings are classified
   by the syntactic head of their right-hand side, closure-local
   bindings shadow, and anything the pass cannot see (function
   parameters of unknown type, values returned by unknown calls) is
   trusted — the pass errs on the quiet side, like R1-R4.  Findings
   reuse [Lint_core]'s type, suppression comments and allowlist. *)

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
(* D1 policy: which arguments of which entry points run on workers.    *)

(* Argument labels whose closures execute on worker domains ("" is the
   unlabelled position).  [Engine.sweep]'s ~reduce folds task results
   serially in the calling domain, so it is deliberately not scanned. *)
let entry_policy =
  [
    (("Parallel", "map_array"), [ "" ]);
    (("Parallel", "fork_join"), [ "" ]);
    (("Engine", "sweep"), [ "task" ]);
    (("Engine", "map_tasks"), [ "" ]);
  ]

let entry_of fn =
  match head_longident fn with
  | None -> None
  | Some li ->
    (match last2 (strip_stdlib (Longident.flatten li)) with
     | Some ((m, f) as key) ->
       (match List.assoc_opt key entry_policy with
        | Some labels -> Some (m ^ "." ^ f, labels)
        | None -> None)
     | None -> None)

let label_matches labels = function
  | Asttypes.Nolabel -> List.mem "" labels
  | Asttypes.Labelled l | Asttypes.Optional l -> List.mem l labels

(* ------------------------------------------------------------------ *)
(* Mutable-construct classification                                    *)

let container_modules = [ "Hashtbl"; "Buffer"; "Queue"; "Stack" ]

(* Mutating functions of those containers, used both to detect writes
   through captured names and to mark names as mutated for the weak
   (array) classification. *)
let container_mutators =
  [
    "replace"; "add"; "remove"; "reset"; "clear"; "push"; "pop"; "take"; "transfer";
    "add_string"; "add_char"; "add_buffer"; "add_subbytes"; "filter_map_inplace"; "truncate";
  ]

(* Constructors returning records with mutable fields that must stay
   domain-local (matched on the last two path components, so
   [Model.View.of_profile] counts too). *)
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

(* [mutation_target ~ht_modules e] is [Some (name, how)] when [e]
   syntactically writes through the value bound to [name]:
   [name := …], [incr]/[decr], [name.(i) <- …] (the parser desugars
   index assignment to [Array.set]), [name.field <- …], or a mutating
   container operation with [name] as its first argument. *)
let mutation_target ~ht_modules e =
  match e.pexp_desc with
  | Pexp_setfield ({ pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }, _, _) ->
    Some (x, "field assignment")
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
    let first_ident () =
      match args with
      | (_, { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ }) :: _ -> Some x
      | _ -> None
    in
    (match strip_stdlib (Longident.flatten txt) with
     | [ ":=" ] | [ "incr" ] | [ "decr" ] ->
       (match first_ident () with Some x -> Some (x, "ref assignment") | None -> None)
     | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] ->
       (match first_ident () with Some x -> Some (x, "array write") | None -> None)
     | [ m; f ]
       when (List.mem m container_modules || List.mem m !ht_modules)
            && List.mem f container_mutators ->
       (match first_ident () with Some x -> Some (x, m ^ "." ^ f) | None -> None)
     | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pre-passes: local Hashtbl.Make instances, names written anywhere.   *)

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

let collect_mutated ~ht_modules structure =
  let tbl = Hashtbl.create 16 in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match mutation_target ~ht_modules e with
     | Some (x, _) -> Hashtbl.replace tbl x ()
     | None -> ());
    super.expr self e
  in
  let it = { super with expr } in
  List.iter (fun item -> it.structure_item it item) structure;
  tbl

(* ------------------------------------------------------------------ *)
(* Scope-tracking walk                                                 *)

type env = {
  muts : (string * mutability) list;  (* mutable-bound names in scope *)
  funs : (string * expression) list;  (* let-bound functions, for by-name closure args *)
}

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

let remove names env =
  {
    muts = List.filter (fun (x, _) -> not (List.mem x names)) env.muts;
    funs = List.filter (fun (x, _) -> not (List.mem x names)) env.funs;
  }

let is_function e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* Rebinding a name forgets whatever it meant before; a var binding
   then records what the new right-hand side constructs. *)
let bind ~ht_modules env vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = x; _ }
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt = x; _ }; _ }, _) ->
    let env = remove [ x ] env in
    let env =
      match classify ~ht_modules vb.pvb_expr with
      | Some m -> { env with muts = (x, m) :: env.muts }
      | None -> env
    in
    if is_function vb.pvb_expr then { env with funs = (x, vb.pvb_expr) :: env.funs } else env
  | _ -> remove (pattern_vars vb.pvb_pat) env

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
  let file_mutated = collect_mutated ~ht_modules structure in
  (* D2/D4: plain identifier rules, checked on every expression. *)
  let check_ident li loc =
    let parts = strip_stdlib (Longident.flatten li) in
    (match parts with
     | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ :: _
       when has Domain_prim ->
       report Domain_prim loc
         (Printf.sprintf
            "raw %s primitive outside lib/parallel; route concurrency through the Parallel \
             fork-join layer so determinism stays auditable"
            (List.hd parts))
     | _ -> ());
    match parts with
    | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] when has Wall_clock ->
      report Wall_clock loc
        (Printf.sprintf "wall-clock read %s outside bench/; timing belongs to the benchmark \
                         harness" (String.concat "." parts))
    | _ -> ()
  in
  (* D1: scan one closure that will run on worker domains.  [locals]
     are names bound inside the closure (parameters, lets, cases) —
     everything else it mentions is captured. *)
  let scan_closure entry env closure =
    let reported = Hashtbl.create 4 in
    let once x f =
      if not (Hashtbl.mem reported x) then begin
        Hashtbl.add reported x ();
        f ()
      end
    in
    let rec go locals e =
      (match mutation_target ~ht_modules e with
       | Some (x, how) when not (List.mem x locals) ->
         once x (fun () ->
             report Capture e.pexp_loc
               (Printf.sprintf
                  "closure passed to %s mutates captured '%s' (%s); cross-domain writes race — \
                   accumulate into worker-local state and merge the results"
                  entry x how))
       | _ -> ());
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; loc } when not (List.mem x locals) ->
        (match List.assoc_opt x env.muts with
         | Some (Strong reason) ->
           once x (fun () ->
               report Capture loc
                 (Printf.sprintf
                    "closure passed to %s captures '%s', bound outside the closure to %s; \
                     shared mutable state races across domains — build it inside the worker \
                     instead"
                    entry x reason))
         | Some (Weak reason) when Hashtbl.mem file_mutated x ->
           once x (fun () ->
               report Capture loc
                 (Printf.sprintf
                    "closure passed to %s captures '%s' (%s that this file mutates); shared \
                     array writes race across domains"
                    entry x reason))
         | Some (Weak _) | None -> ())
      | Pexp_ident _ -> ()
      | Pexp_fun (_, default, pat, body) ->
        Option.iter (go locals) default;
        go (pattern_vars pat @ locals) body
      | Pexp_function cases -> List.iter (case locals) cases
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        go locals scrut;
        List.iter (case locals) cases
      | Pexp_let (rf, vbs, body) ->
        let bound = List.concat_map (fun vb -> pattern_vars vb.pvb_pat) vbs in
        let rhs_locals = match rf with Asttypes.Recursive -> bound @ locals | _ -> locals in
        List.iter (fun vb -> go rhs_locals vb.pvb_expr) vbs;
        go (bound @ locals) body
      | Pexp_for (pat, lo, hi, _, body) ->
        go locals lo;
        go locals hi;
        go (pattern_vars pat @ locals) body
      | _ ->
        let it =
          { Ast_iterator.default_iterator with expr = (fun _ e -> go locals e) }
        in
        Ast_iterator.default_iterator.expr it e
    and case locals c =
      let locals = pattern_vars c.pc_lhs @ locals in
      Option.iter (go locals) c.pc_guard;
      go locals c.pc_rhs
    in
    go [] closure
  in
  (* The main walk threads a scope environment through expressions so
     the D1 check knows what a captured name was bound to. *)
  let rec walk_expr env e =
    (match e.pexp_desc with
     | Pexp_ident { txt; loc } -> check_ident txt loc
     | _ -> ());
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let env_for_rhs =
        match rf with
        | Asttypes.Recursive -> List.fold_left (bind ~ht_modules) env vbs
        | _ -> env
      in
      List.iter (fun vb -> walk_expr env_for_rhs vb.pvb_expr) vbs;
      walk_expr (List.fold_left (bind ~ht_modules) env vbs) body
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk_expr env) default;
      walk_expr (remove (pattern_vars pat) env) body
    | Pexp_function cases -> List.iter (walk_case env) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk_expr env scrut;
      List.iter (walk_case env) cases
    | Pexp_for (pat, lo, hi, _, body) ->
      walk_expr env lo;
      walk_expr env hi;
      walk_expr (remove (pattern_vars pat) env) body
    | Pexp_apply (fn, args) ->
      (if has Capture then
         match entry_of fn with
         | Some (entry, labels) ->
           List.iter
             (fun (lbl, arg) ->
               if label_matches labels lbl then
                 match arg.pexp_desc with
                 | Pexp_fun _ | Pexp_function _ -> scan_closure entry env arg
                 | Pexp_ident { txt = Longident.Lident f; _ } ->
                   (match List.assoc_opt f env.funs with
                    | Some body -> scan_closure entry env body
                    | None -> ())
                 | _ -> ())
             args
         | None -> ());
      walk_expr env fn;
      List.iter (fun (_, a) -> walk_expr env a) args
    | _ ->
      (* Forms that introduce no value bindings: iterate children with
         the same environment. *)
      let it = { Ast_iterator.default_iterator with expr = (fun _ e -> walk_expr env e) } in
      Ast_iterator.default_iterator.expr it e
  and walk_case env c =
    let env = remove (pattern_vars c.pc_lhs) env in
    Option.iter (walk_expr env) c.pc_guard;
    walk_expr env c.pc_rhs
  in
  let rec walk_item env item =
    match item.pstr_desc with
    | Pstr_value (rf, vbs) ->
      if has Top_mutable then
        List.iter
          (fun vb ->
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
            | Some (Weak _) | None -> ())
          vbs;
      let env_for_rhs =
        match rf with
        | Asttypes.Recursive -> List.fold_left (bind ~ht_modules) env vbs
        | _ -> env
      in
      List.iter (fun vb -> walk_expr env_for_rhs vb.pvb_expr) vbs;
      List.fold_left (bind ~ht_modules) env vbs
    | Pstr_eval (e, _) ->
      walk_expr env e;
      env
    | Pstr_module { pmb_expr; _ } ->
      walk_module env pmb_expr;
      env
    | Pstr_recmodule mbs ->
      List.iter (fun mb -> walk_module env mb.pmb_expr) mbs;
      env
    | Pstr_include { pincl_mod; _ } ->
      walk_module env pincl_mod;
      env
    | _ -> env
  and walk_module env me =
    match me.pmod_desc with
    | Pmod_structure items -> ignore (List.fold_left walk_item env items)
    | Pmod_functor (_, body) -> walk_module env body
    | Pmod_apply (f, a) ->
      walk_module env f;
      walk_module env a
    | Pmod_constraint (me, _) -> walk_module env me
    | Pmod_unpack e -> walk_expr env e
    | _ -> ()
  in
  ignore (List.fold_left walk_item { muts = []; funs = [] } structure);
  !findings

(* ------------------------------------------------------------------ *)
(* Combined entry points: R1-R4 + D1-D4 on one parse.                  *)

let lint_source ~rules ~path content =
  let structure = Lint_core.parse_source ~path content in
  let r_findings = Lint_core.lint_structure ~rules ~path structure in
  let d_findings = lint_structure ~rules ~path structure in
  Lint_core.mark_suppressions (Lint_core.content_lines content) (r_findings @ d_findings)

let lint_file ~rules path = lint_source ~rules ~path (Lint_core.read_file path)
