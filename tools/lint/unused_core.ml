(* Dead-export lint for the selfish_routing tree: rule U1.

   Unlike R1-R4 and D2-D4 this pass is typed and whole-program.  It
   reads the .cmt/.cmti files a dune build context already holds
   (compiler-libs [Cmt_format] plus a [Tast_iterator] walk), so every
   reference is a resolved [Path.t] rather than a spelling:

   - wrapped-library names fold into one: [Numeric.Rational.x] and
     [Numeric__Rational.x] both become [Numeric.Rational.x], and a
     library with its own main module [M] folds its alias module
     [M__] into [M];
   - [open]s need no work, the type checker already resolved them;
   - local module aliases ([module M = P] at any depth, and
     [let module M = P in ...]) are followed to their target;
   - a module used as a whole (a functor argument, an [include], a
     first-class [(module M)]) counts as a reference to each of its
     values.

   A unit's role comes from the first directory of its compiled
   files under the context root: lib/ units are the targets and, with
   bin/, examples/ and tools/, real callers; test/ and bench/ units
   are test and bench callers.  A reference counts only when it comes
   from outside the value's own compilation unit.  Not followed: a
   value reached through another unit's exported module alias, and
   functor bodies over their parameters — both would show as false
   findings, never hide one. *)

open Typedtree

type use = Used | Unused | Test_only | Bench_only

let use_name = function
  | Used -> "used"
  | Unused -> "unused"
  | Test_only -> "test-only"
  | Bench_only -> "bench-only"

type export = {
  name : string;
  file : string;
  line : int;
  col : int;
  use : use;
  internal : bool;
}

type role = Target | Caller | Test | Bench

(* [Numeric__Rational] -> [Numeric; Rational]; the alias module [M__]
   that dune generates for a library with its own main module [M] ->
   [M]. *)
let unit_path modname =
  let rec split s =
    let n = String.length s in
    let rec find i =
      if i + 1 >= n then None else if s.[i] = '_' && s.[i + 1] = '_' then Some i else find (i + 1)
    in
    match find 0 with
    | None -> [ s ]
    | Some i -> String.sub s 0 i :: split (String.sub s (i + 2) (n - i - 2))
  in
  List.filter (fun s -> s <> "") (split modname)

let dotted = String.concat "."

(* ------------------------------------------------------------------ *)
(* Reading the compiled tree                                           *)

type unit_files = {
  rel_dir : string;  (* objects directory relative to the context root *)
  modname : string;
  mutable impl : Cmt_format.cmt_infos option;
  mutable intf : Cmt_format.cmt_infos option;
}

let role_of rel_dir =
  match String.split_on_char '/' rel_dir with
  | "lib" :: _ -> Target
  | "test" :: _ -> Test
  | "bench" :: _ -> Bench
  | _ -> Caller

let compiled_units root =
  let units = Hashtbl.create 256 in
  let add rel_dir file =
    let is_cmt = Filename.check_suffix file ".cmt" in
    if is_cmt || Filename.check_suffix file ".cmti" then begin
      let infos = Cmt_format.read_cmt (Filename.concat root (Filename.concat rel_dir file)) in
      let modname = infos.Cmt_format.cmt_modname in
      let key = rel_dir ^ "/" ^ modname in
      let u =
        match Hashtbl.find_opt units key with
        | Some u -> u
        | None ->
          let u = { rel_dir; modname; impl = None; intf = None } in
          Hashtbl.replace units key u;
          u
      in
      if is_cmt then u.impl <- Some infos else u.intf <- Some infos
    end
  in
  let rec walk rel_dir =
    let dir = if rel_dir = "" then root else Filename.concat root rel_dir in
    Array.iter
      (fun name ->
        let rel = if rel_dir = "" then name else rel_dir ^ "/" ^ name in
        if Sys.is_directory (Filename.concat root rel) then (if name <> "_build" then walk rel)
        else add rel_dir name)
      (Sys.readdir dir)
  in
  walk "";
  Hashtbl.fold (fun _ u acc -> u :: acc) units []

let source_file infos = Option.value infos.Cmt_format.cmt_sourcefile ~default:""

(* ------------------------------------------------------------------ *)
(* Exports                                                             *)

let loc_pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let rec sig_exports prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd -> (prefix @ [ vd.val_name.txt ], vd.val_loc) :: acc
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
        sig_exports (prefix @ [ m ]) s.sig_items acc
      | _ -> acc)
    acc items

let rec peel me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> peel me | _ -> me

let rec str_exports prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc (id, loc, _) -> (prefix @ [ Ident.name id ], loc.Location.loc) :: acc)
          acc (let_bound_idents_full vbs)
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
        (match (peel mb_expr).mod_desc with
         | Tmod_structure s -> str_exports (prefix @ [ m ]) s.str_items acc
         | _ -> acc)
      | _ -> acc)
    acc items

(* ------------------------------------------------------------------ *)
(* References                                                          *)

(* One pass over an implementation: every value path it mentions,
   every module it uses whole, and the local bindings needed to
   resolve them (module aliases, and the unit's own top-level values
   and submodules, keyed by [Ident.unique_name]). *)
let collect_refs unit_prefix str =
  let aliases = Hashtbl.create 16 in
  let locals = Hashtbl.create 64 in
  let values = ref [] and wholes = ref [] in
  let rec bind_items prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun id -> Hashtbl.replace locals (Ident.unique_name id) (prefix @ [ Ident.name id ]))
            (let_bound_idents vbs)
        | Tstr_module { mb_id = Some id; mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          (match (peel mb_expr).mod_desc with
           | Tmod_structure s ->
             Hashtbl.replace locals (Ident.unique_name id) (prefix @ [ m ]);
             bind_items (prefix @ [ m ]) s.str_items
           | _ -> ())
        | _ -> ())
      items
  in
  bind_items unit_prefix str.str_items;
  let alias id me =
    match (peel me).mod_desc with
    | Tmod_ident (p, _) -> Hashtbl.replace aliases (Ident.unique_name id) p
    | _ -> ()
  in
  let whole me =
    match (peel me).mod_desc with Tmod_ident (p, _) -> wholes := p :: !wholes | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
     | Texp_ident (p, _, _) -> values := p :: !values
     | Texp_letmodule (Some id, _, _, me, _) -> alias id me
     | Texp_pack me -> whole me
     | _ -> ());
    super.expr self e
  in
  let module_binding self mb =
    (match mb.mb_id with Some id -> alias id mb.mb_expr | None -> ());
    super.module_binding self mb
  in
  let module_expr self me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    super.module_expr self me
  in
  let structure_item self item =
    (match item.str_desc with Tstr_include incl -> whole incl.incl_mod | _ -> ());
    super.structure_item self item
  in
  let it = { super with expr; module_binding; module_expr; structure_item } in
  it.structure it str;
  let rec resolve depth = function
    | Path.Pident id when Ident.global id -> Some (unit_path (Ident.name id))
    | Path.Pident id -> (
      let key = Ident.unique_name id in
      match Hashtbl.find_opt locals key with
      | Some q -> Some q
      | None -> (
        match Hashtbl.find_opt aliases key with
        | Some p when depth < 64 -> resolve (depth + 1) p
        | _ -> None))
    | Path.Pdot (p, s) -> Option.map (fun q -> q @ [ s ]) (resolve depth p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  ( List.filter_map (resolve 0) !values,
    List.filter_map (fun p -> Option.map (fun q -> q @ [ "*" ]) (resolve 0 p)) !wholes )

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)

let scan root =
  let units = compiled_units root in
  (* name -> (referencing unit, its role) list; a whole-module use is
     recorded under [Module.*]. *)
  let refs = Hashtbl.create 4096 in
  let exports = Hashtbl.create 1024 in
  List.iter
    (fun u ->
      let role = role_of u.rel_dir in
      let prefix = unit_path u.modname in
      let me = dotted prefix in
      (match u.impl with
       | Some ({ Cmt_format.cmt_annots = Implementation str; _ } as infos) ->
         let names, wholes = collect_refs prefix str in
         List.iter (fun n -> Hashtbl.add refs (dotted n) (me, role)) (names @ wholes);
         if role = Target && u.intf = None then
           List.iter
             (fun e -> Hashtbl.add exports (dotted (fst e)) (me, source_file infos, snd e))
             (str_exports prefix str.str_items [])
       | _ -> ());
      match u.intf with
      | Some ({ Cmt_format.cmt_annots = Interface sg; _ } as infos) when role = Target ->
        List.iter
          (fun e -> Hashtbl.add exports (dotted (fst e)) (me, source_file infos, snd e))
          (sig_exports prefix sg.sig_items [])
      | _ -> ())
    units;
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) exports [] |> List.sort_uniq String.compare in
  List.map
    (fun name ->
      let defs = Hashtbl.find_all exports name in
      let owners = List.map (fun (u, _, _) -> u) defs in
      (* Prefer the interface's declaration for the report. *)
      let _, file, loc =
        match List.find_opt (fun (_, f, _) -> Filename.check_suffix f ".mli") defs with
        | Some d -> d
        | None -> List.hd defs
      in
      let parts = String.split_on_char '.' name in
      let keys =
        name
        :: List.init (List.length parts - 1) (fun k ->
               dotted (List.filteri (fun i _ -> i <= k) parts @ [ "*" ]))
      in
      let uses = List.concat_map (Hashtbl.find_all refs) keys in
      let outside = List.filter_map (fun (u, r) -> if List.mem u owners then None else Some r) uses in
      let use =
        if List.exists (fun r -> r = Target || r = Caller) outside then Used
        else if List.mem Bench outside then Bench_only
        else if List.mem Test outside then Test_only
        else Unused
      in
      let line, col = loc_pos loc in
      { name; file; line; col; use; internal = List.exists (fun (u, _) -> List.mem u owners) uses })
    names

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)

let message e =
  let inside = if e.internal then " (and inside its own unit)" else "" in
  match e.use with
  | Used -> ""
  | Unused when e.internal ->
    Printf.sprintf "%s is exported but used only inside its own unit; drop it from the interface"
      e.name
  | Unused -> Printf.sprintf "%s is exported but referenced nowhere; delete it" e.name
  | Test_only ->
    Printf.sprintf
      "%s is referenced only from test/%s; delete it with its tests, or allowlist it as an \
       oracle or hook"
      e.name inside
  | Bench_only ->
    Printf.sprintf
      "%s is referenced from bench/%s but from no library, executable or example; allowlist it \
       as a bench-probe or delete it"
      e.name inside

let check ~allowlist_file entries exports =
  let u1 = List.filter (fun en -> en.Lint_core.al_rule = Some Lint_core.Unused_export) entries in
  let entry_for name = List.find_opt (fun en -> en.Lint_core.al_path = name) u1 in
  let finding ~file ~line ~col ~suppressed message =
    { Lint_core.file; line; col; rule = Lint_core.Unused_export; message; suppressed }
  in
  let live =
    List.filter_map
      (fun e ->
        if e.use = Used then None
        else
          Some
            (finding ~file:e.file ~line:e.line ~col:e.col
               ~suppressed:(entry_for e.name <> None) (message e)))
      exports
  in
  (* An allowlist line must keep naming a live finding of its class,
     or it silently outlives the reason it was written for. *)
  let stale =
    List.filter_map
      (fun en ->
        let name = en.Lint_core.al_path in
        let why =
          match List.find_opt (fun e -> e.name = name) exports with
          | None -> Some "names no exported lib/ value"
          | Some { use = Used; _ } -> Some "names a value that is now used"
          | Some e when en.Lint_core.al_reason = Some "bench-probe" && e.use <> Bench_only ->
            Some (Printf.sprintf "is a bench-probe but the value is now %s" (use_name e.use))
          | Some _ -> None
        in
        Option.map
          (fun why ->
            finding ~file:allowlist_file ~line:en.Lint_core.al_line ~col:0 ~suppressed:false
              (Printf.sprintf "stale allowlist entry: U1 %s %s; remove the line" name why))
          why)
      u1
  in
  List.sort
    (fun (a : Lint_core.finding) b ->
      match String.compare a.file b.file with 0 -> Int.compare a.line b.line | c -> c)
    (live @ stale)
