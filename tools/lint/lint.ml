(* CLI driver for the exactness, domain-safety and dead-export lint
   (R1-R4, D2-D4, U1).

     lint [--allowlist FILE] [--json FILE] [--show-suppressed] PATH...

   Walks every .ml under the given paths (skipping _build and dot
   directories), applies the repo scoping policy from
   [Lint_core.default_rules], prints human-readable findings and an
   optional machine-readable JSON summary, and exits 1 when any
   unsuppressed finding remains (2 on parse/usage errors).

   U1 is whole-program: when a path is lib/ or lies inside it, every
   lib/ export is checked against the compiled tree of the project in
   the current directory — _build/default from a source checkout, the
   current directory itself inside a dune build context (the @lint
   rule).  It needs a prior build; finding no compiled lib/ unit is a
   usage error. *)

let usage () =
  prerr_endline "usage: lint [--allowlist FILE] [--json FILE] [--show-suppressed] PATH...";
  exit 2

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "_build" || (String.length name > 0 && name.[0] = '.') then acc
           else walk acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path ~files_scanned findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let count pred = List.length (List.filter pred findings) in
      let per_rule suppressed =
        String.concat ", "
          (List.map
             (fun r ->
               Printf.sprintf "\"%s\": %d" (Lint_core.rule_id r)
                 (count (fun f -> f.Lint_core.rule = r && f.Lint_core.suppressed = suppressed)))
             Lint_core.all_rules)
      in
      Printf.fprintf oc "{\n  \"schema\": \"exactness-lint/4\",\n";
      Printf.fprintf oc "  \"files_scanned\": %d,\n" files_scanned;
      Printf.fprintf oc "  \"unsuppressed\": %d,\n" (count (fun f -> not f.Lint_core.suppressed));
      Printf.fprintf oc "  \"suppressed\": %d,\n" (count (fun f -> f.Lint_core.suppressed));
      Printf.fprintf oc "  \"counts\": {%s},\n" (per_rule false);
      Printf.fprintf oc "  \"suppressed_counts\": {%s},\n" (per_rule true);
      Printf.fprintf oc "  \"findings\": [\n";
      List.iteri
        (fun i f ->
          Printf.fprintf oc
            "    {\"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \"%s\", \"name\": \
             \"%s\", \"suppressed\": %b, \"message\": \"%s\"}%s\n"
            (json_escape f.Lint_core.file) f.Lint_core.line f.Lint_core.col
            (Lint_core.rule_id f.Lint_core.rule)
            (Lint_core.rule_mnemonic f.Lint_core.rule)
            f.Lint_core.suppressed
            (json_escape f.Lint_core.message)
            (if i = List.length findings - 1 then "" else ","))
        findings;
      Printf.fprintf oc "  ]\n}\n")

let () =
  let allowlist = ref [] in
  let allowlist_file = ref "allowlist" in
  let json_out = ref None in
  let show_suppressed = ref false in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--allowlist" :: file :: rest ->
      allowlist_file := file;
      (allowlist := try Lint_core.load_allowlist file with Failure m -> prerr_endline m; exit 2);
      parse_args rest
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse_args rest
    | "--show-suppressed" :: rest ->
      show_suppressed := true;
      parse_args rest
    | ("--allowlist" | "--json") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | path :: rest ->
      paths := path :: !paths;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  let files = List.fold_left walk [] (List.rev !paths) |> List.sort String.compare in
  let errors = ref 0 in
  let findings =
    List.concat_map
      (fun file ->
        let rules = Lint_core.default_rules file in
        if rules = [] then []
        else
          try Lint_core.apply_allowlist !allowlist (Domain_core.lint_file ~rules file) with
          | Syntaxerr.Error _ ->
            incr errors;
            Printf.eprintf "%s: syntax error, cannot lint\n" file;
            []
          | Sys_error m ->
            incr errors;
            Printf.eprintf "%s\n" m;
            [])
      files
  in
  let covers_lib p = p = "." || p = "lib" || Lint_core.has_prefix ~prefix:"lib/" p in
  let findings =
    if not (List.exists covers_lib !paths) then findings
    else begin
      let root = if Sys.file_exists "_build/default" then "_build/default" else "." in
      match Unused_core.scan root with
      | [] ->
        Printf.eprintf "lint: U1 found no compiled lib/ unit under %s; build first\n" root;
        exit 2
      | exports -> findings @ Unused_core.check ~allowlist_file:!allowlist_file !allowlist exports
    end
  in
  List.iter
    (fun f ->
      if (not f.Lint_core.suppressed) || !show_suppressed then
        Printf.printf "%s:%d:%d: [%s %s]%s %s\n" f.Lint_core.file f.Lint_core.line
          f.Lint_core.col
          (Lint_core.rule_id f.Lint_core.rule)
          (Lint_core.rule_mnemonic f.Lint_core.rule)
          (if f.Lint_core.suppressed then " (suppressed)" else "")
          f.Lint_core.message)
    findings;
  let unsuppressed = List.length (List.filter (fun f -> not f.Lint_core.suppressed) findings) in
  let suppressed = List.length findings - unsuppressed in
  (match !json_out with
   | Some path -> write_json path ~files_scanned:(List.length files) findings
   | None -> ());
  Printf.printf "lint: %d files, %d finding%s (%d suppressed)\n" (List.length files) unsuppressed
    (if unsuppressed = 1 then "" else "s")
    suppressed;
  if !errors > 0 then exit 2 else if unsuppressed > 0 then exit 1
