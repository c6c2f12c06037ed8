open Numeric
open Model

type t =
  | Arrive of { cls : int; link : int; count : int }
  | Depart of { cls : int; link : int; count : int }
  | Reweight of { cls : int; weight : Rational.t }
  | Revise_capacity of { cls : int; link : int; cap : Rational.t }

type log = t list list

let apply v = function
  | Arrive { cls; link; count } ->
    if count <= 0 then invalid_arg "Mutation.apply: arrive count must be positive";
    Cview.revise_count v ~cls ~link ~delta:count
  | Depart { cls; link; count } ->
    if count <= 0 then invalid_arg "Mutation.apply: depart count must be positive";
    Cview.revise_count v ~cls ~link ~delta:(-count)
  | Reweight { cls; weight } -> Cview.revise_weight v ~cls weight
  | Revise_capacity { cls; link; cap } -> Cview.revise_capacity v ~cls ~link cap

let fail_line = Game_io.line_error "Mutation"
let parse_rational = Game_io.line_rational "Mutation"

let parse_int lineno what s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> n
  | Some _ -> fail_line lineno (Printf.sprintf "%s must be non-negative" what)
  | None -> fail_line lineno (Printf.sprintf "bad %s %S" what s)

let parse_positive lineno what s =
  let n = parse_int lineno what s in
  if n = 0 then fail_line lineno (Printf.sprintf "%s must be positive" what);
  n

let parse text =
  (* [batches] holds completed batches reversed; [cur] the open batch
     reversed, [None] before the first 'batch' directive. *)
  let batches = ref [] and cur = ref None in
  let close () = match !cur with None -> () | Some b -> batches := List.rev b :: !batches in
  let push lineno mu =
    match !cur with
    | None -> fail_line lineno "mutation before first 'batch' directive"
    | Some b -> cur := Some (mu :: b)
  in
  Game_io.scan_lines text (fun lineno _ words ->
    match words with
    | [ "batch" ] ->
      close ();
      cur := Some []
    | "batch" :: _ -> fail_line lineno "expected: batch (no arguments)"
    | [ "arrive"; cls; link; count ] ->
      push lineno
        (Arrive
           {
             cls = parse_int lineno "class" cls;
             link = parse_int lineno "link" link;
             count = parse_positive lineno "count" count;
           })
    | "arrive" :: _ -> fail_line lineno "expected: arrive <class> <link> <count>"
    | [ "depart"; cls; link; count ] ->
      push lineno
        (Depart
           {
             cls = parse_int lineno "class" cls;
             link = parse_int lineno "link" link;
             count = parse_positive lineno "count" count;
           })
    | "depart" :: _ -> fail_line lineno "expected: depart <class> <link> <count>"
    | [ "reweight"; cls; weight ] ->
      let weight = parse_rational lineno weight in
      if Rational.sign weight <= 0 then fail_line lineno "weight must be positive";
      push lineno (Reweight { cls = parse_int lineno "class" cls; weight })
    | "reweight" :: _ -> fail_line lineno "expected: reweight <class> <weight>"
    | [ "capacity"; cls; link; cap ] ->
      let cap = parse_rational lineno cap in
      if Rational.sign cap <= 0 then fail_line lineno "capacity must be positive";
      push lineno
        (Revise_capacity
           { cls = parse_int lineno "class" cls; link = parse_int lineno "link" link; cap })
    | "capacity" :: _ -> fail_line lineno "expected: capacity <class> <link> <capacity>"
    | word :: _ -> fail_line lineno (Printf.sprintf "unknown directive %S" word)
    | [] -> ());
  close ();
  match List.rev !batches with
  | [] -> invalid_arg "Mutation: need at least one 'batch' directive"
  | log -> log

let render log =
  let buf = Buffer.create 256 in
  List.iter
    (fun batch ->
      Buffer.add_string buf "batch\n";
      List.iter
        (fun mu ->
          Buffer.add_string buf
            (match mu with
             | Arrive { cls; link; count } -> Printf.sprintf "arrive %d %d %d\n" cls link count
             | Depart { cls; link; count } -> Printf.sprintf "depart %d %d %d\n" cls link count
             | Reweight { cls; weight } ->
               Printf.sprintf "reweight %d %s\n" cls (Rational.to_string weight)
             | Revise_capacity { cls; link; cap } ->
               Printf.sprintf "capacity %d %d %s\n" cls link (Rational.to_string cap)))
        batch)
    log;
  Buffer.contents buf
