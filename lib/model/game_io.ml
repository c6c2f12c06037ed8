open Numeric

(* ------------------------------------------------------------------ *)
(* Line scanner (shared with Serve.Mutation)                           *)

let line_error src lineno msg = invalid_arg (Printf.sprintf "%s: line %d: %s" src lineno msg)

let line_rational src lineno s =
  try Rational.of_string s
  with Invalid_argument _ -> line_error src lineno (Printf.sprintf "bad number %S" s)

let scan_lines text f =
  List.iteri
    (fun idx raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
        |> f (idx + 1) line)
    (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* The reduced-form table                                              *)

type rows =
  | Capacities of Rational.t array array
  | Intervals of Rational.t array array
  | Beliefs of Belief.t array

type table = {
  counts : int array option;
  weights : Rational.t array;
  presence : Rational.t array option;
  rows : rows;
}

type site = Whole | Presence | Row of int

let table_kind t =
  match (t.rows, t.presence) with
  | Intervals _, _ -> Uncertainty.Strict
  | _, Some _ -> Uncertainty.Participation
  | _, None -> Uncertainty.Bayesian

let table_links t =
  match t.rows with
  | Capacities r -> Array.length r.(0)
  | Intervals r -> Array.length r.(0) / 2
  | Beliefs b -> Belief.links b.(0)

let table_rows t =
  match t.rows with
  | Capacities r | Intervals r -> r
  | Beliefs b -> Array.map Belief.effective_capacities b

(* The one mixed-backend check: a payload stores one backend for the
   whole population, so a game mixing kinds has no text or wire form. *)
let extract ~what ~counts n weight uncertainty capacity_row =
  let us = Array.init n uncertainty in
  let kind = Uncertainty.kind us.(0) in
  Array.iter
    (fun u ->
      if not (Uncertainty.equal_kind kind (Uncertainty.kind u)) then
        invalid_arg (what ^ ": cannot serialise mixed uncertainty backends"))
    us;
  let interval_row u =
    let lo, hi = Option.get (Uncertainty.strict_bounds u) in
    Array.init (2 * State.links lo) (fun j -> State.capacity (if j mod 2 = 0 then lo else hi) (j / 2))
  in
  {
    counts;
    weights = Array.init n weight;
    presence =
      (match kind with
       | Uncertainty.Participation -> Some (Array.map Uncertainty.presence us)
       | _ -> None);
    rows =
      (match kind with
       | Uncertainty.Strict -> Intervals (Array.map interval_row us)
       | _ -> Capacities (Array.init n capacity_row));
  }

let table_of_game ~what g =
  extract ~what ~counts:None (Game.users g) (Game.weight g) (Game.uncertainty g) (Game.capacity_row g)

let table_of_cgame ~what g =
  let k = Cgame.classes g in
  extract ~what ~counts:(Some (Array.init k (Cgame.count g))) k (Cgame.weight g)
    (Cgame.uncertainty g) (Cgame.capacity_row g)

(* Every check between the table's parts (presence and row arity, no
   presence under strict), the participation wrap and the interval rows
   live here; errors carry the caller's prefix for the site they
   concern. *)
let uncertainty ~prefix ~per ~arity t =
  let fail site msg = invalid_arg (prefix site ^ msg) in
  let at site f x = try f x with Invalid_argument msg -> fail site msg in
  let n = Array.length t.weights in
  (match (t.presence, t.rows) with
   | Some _, Intervals _ -> fail Presence "'presence' requires 'uncertainty participation'"
   | Some p, _ when Array.length p <> n ->
     fail Presence
       (Printf.sprintf "presence line has %d entries, expected %d (one per %s)" (Array.length p) n per)
   | _ -> ());
  let entries = match t.rows with Capacities r | Intervals r -> Array.length r | Beliefs b -> Array.length b in
  if entries <> n then fail Whole arity;
  let wrap beliefs =
    match t.presence with
    | None -> Array.map Uncertainty.bayesian beliefs
    | Some p -> Array.mapi (fun i b -> at Presence (Uncertainty.participation ~presence:p.(i)) b) beliefs
  in
  match t.rows with
  | Capacities r -> wrap (Array.map (at Whole (fun row -> Belief.certain (State.make row))) r)
  | Beliefs b -> wrap b
  | Intervals r ->
    Array.mapi
      (fun i row ->
        at (Row i) Uncertainty.strict_of_intervals
          (Array.init (Array.length row / 2) (fun l -> (row.(2 * l), row.((2 * l) + 1)))))
      r

let game_of_table ~prefix t =
  if Option.is_some t.counts then invalid_arg "Game_io.game_of_table: class counts in a per-user table";
  (* Each body keeps its own pinned arity message. *)
  let arity =
    match (t.rows, t.presence) with
    | Capacities _, None -> "Game.of_capacities: one capacity row per user required"
    | Intervals _, _ -> "Game.make: one uncertainty backend per user required"
    | _ -> "Game.make: one belief per user required"
  in
  let uncertainty = uncertainty ~prefix ~per:"user" ~arity t in
  try Game.make_uncertain ~weights:t.weights ~uncertainty
  with Invalid_argument msg -> invalid_arg (prefix Whole ^ msg)

let cgame_of_table ~prefix t =
  match t.counts with
  | None -> invalid_arg "Game_io.cgame_of_table: a class table needs counts"
  | Some counts ->
    let arity = "Cgame.make: one count, weight and belief per class required" in
    let uncertainty = uncertainty ~prefix ~per:"class" ~arity t in
    (try Cgame.make_uncertain ~counts ~weights:t.weights ~uncertainty
     with Invalid_argument msg -> invalid_arg (prefix Whole ^ msg))

(* ------------------------------------------------------------------ *)
(* Text scanners: per-user and class files fill the table              *)

let fail_line = line_error "Game_io"
let parse_rational = line_rational "Game_io"
let rationals lineno words = Array.of_list (List.map (parse_rational lineno) words)

type accum = {
  mutable links : int option;
  mutable backend : (int * string) option; (* 'uncertainty' directive *)
  mutable presence : (int * Rational.t array) option;
  mutable weights : Rational.t array option;
  mutable states : (int * string * State.t) list; (* reversed, with lineno *)
  mutable beliefs : (int * string) list; (* reversed raw belief bodies *)
  mutable capacities : (int * Rational.t array) list; (* reversed rows *)
  mutable intervals : (int * Rational.t array) list; (* reversed strict rows *)
  mutable classes : (int * int * Rational.t * Rational.t array) list; (* reversed *)
}

(* The binary wire format (Serve.Wire) opens with this magic; catching
   it here turns a mixed-up reader into a pinned, actionable error
   instead of a "unknown directive" complaint about byte soup. *)
let reject_binary text =
  if String.length text >= 4 && String.sub text 0 4 = "SRWF" then
    fail_line 1 "binary wire payload (decode it with Serve.Wire or 'selfish_routing wire')"

(* One scanner for both forms: class files and per-user files are
   different objects, so mixing their directives is an error in both
   directions. *)
let scan ~classes text =
  reject_binary text;
  let acc =
    {
      links = None;
      backend = None;
      presence = None;
      weights = None;
      states = [];
      beliefs = [];
      capacities = [];
      intervals = [];
      classes = [];
    }
  in
  scan_lines text (fun lineno line words ->
      match words with
      | "links" :: rest ->
        (match rest with
         | [ n ] ->
           let n = try int_of_string n with Failure _ -> fail_line lineno "bad link count" in
           if n < 2 then fail_line lineno "need at least two links";
           acc.links <- Some n
         | _ -> fail_line lineno "expected: links <m>")
      | "uncertainty" :: rest ->
        if Option.is_some acc.backend then fail_line lineno "duplicate 'uncertainty' directive";
        (match rest with
         | [ ("bayesian" | "participation" | "strict") as name ] -> acc.backend <- Some (lineno, name)
         | [ other ] -> fail_line lineno (Printf.sprintf "unknown uncertainty backend %S" other)
         | _ -> fail_line lineno "expected: uncertainty <bayesian|participation|strict>")
      | "presence" :: rest ->
        if rest = [] then
          fail_line lineno
            ("expected one presence probability per " ^ if classes then "class" else "user");
        if Option.is_some acc.presence then fail_line lineno "duplicate 'presence' line";
        acc.presence <- Some (lineno, rationals lineno rest)
      | "class" :: rest when classes ->
        (match rest with
         | count :: weight :: caps ->
           let count =
             try int_of_string count
             with Failure _ -> fail_line lineno (Printf.sprintf "bad class count %S" count)
           in
           if count <= 0 then fail_line lineno "class count must be positive";
           if caps = [] then fail_line lineno "class row needs capacities";
           let weight = parse_rational lineno weight in
           acc.classes <- (lineno, count, weight, rationals lineno caps) :: acc.classes
         | _ -> fail_line lineno "expected: class <count> <weight> <c_1> ... <c_m>")
      | "class" :: _ -> fail_line lineno "'class' rows describe a class game; use parse_cgame"
      | ("weights" | "state" | "belief" | "capacities" | "interval") :: _ when classes ->
        fail_line lineno "per-user directives cannot appear in a class game file"
      | "weights" :: rest ->
        if rest = [] then fail_line lineno "expected at least one weight";
        acc.weights <- Some (rationals lineno rest)
      | "state" :: name :: caps ->
        if caps = [] then fail_line lineno "state needs capacities";
        let caps = rationals lineno caps in
        if List.exists (fun (_, n, _) -> n = name) acc.states then
          fail_line lineno (Printf.sprintf "duplicate state %S" name);
        let st = try State.make caps with Invalid_argument m -> fail_line lineno m in
        acc.states <- (lineno, name, st) :: acc.states
      | "belief" :: _ ->
        (* Keep the raw body: "name: prob" pairs are split on ',' later. *)
        acc.beliefs <- (lineno, String.sub line 6 (String.length line - 6)) :: acc.beliefs
      | "capacities" :: rest ->
        if rest = [] then fail_line lineno "capacities row needs entries";
        acc.capacities <- (lineno, rationals lineno rest) :: acc.capacities
      | "interval" :: rest ->
        if rest = [] then fail_line lineno "interval row needs 'lo hi' capacity pairs, one per link";
        acc.intervals <- (lineno, rationals lineno rest) :: acc.intervals
      | word :: _ -> fail_line lineno (Printf.sprintf "unknown directive %S" word)
      | [] -> ());
  acc

(* The stanza and its companion line: 'presence' is legal only under
   participation, which requires it. *)
let backend_of acc =
  let name = match acc.backend with Some (_, name) -> name | None -> "bayesian" in
  (match acc.presence with
   | Some (lineno, _) when name <> "participation" ->
     fail_line lineno "'presence' requires 'uncertainty participation'"
   | None when name = "participation" ->
     invalid_arg "Game_io: participation form requires a 'presence' line"
   | _ -> ());
  name

(* Width validation happens after the whole scan, so it applies no
   matter where (or whether) the 'links' directive appears: every row
   must agree with 'links' when present, and with the first row
   otherwise.  Widths are in link units. *)
let check_widths links rows =
  ignore
    (List.fold_left
       (fun expected (lineno, what, n) ->
         match expected with
         | Some m when n <> m ->
           fail_line lineno
             (Printf.sprintf "%s has wrong number of capacities (%d, expected %d)" what n m)
         | Some _ -> expected
         | None -> Some n)
       links rows)

let pair_width lineno what row =
  let n = Array.length row in
  if n = 0 || n mod 2 <> 0 then fail_line lineno (what ^ " needs 'lo hi' capacity pairs, one per link");
  n / 2

let prefix acc lines = function
  | Whole -> "Game_io: "
  | Presence -> Printf.sprintf "Game_io: line %d: " (fst (Option.get acc.presence))
  | Row i -> Printf.sprintf "Game_io: line %d: " lines.(i)

let parse_beliefs acc =
  if acc.states = [] then invalid_arg "Game_io: belief form requires 'state' lines";
  let named = List.rev_map (fun (_, name, st) -> (name, st)) acc.states in
  let space = State.space (List.map snd named) in
  let index_of lineno name =
    let rec find i = function
      | [] -> fail_line lineno (Printf.sprintf "unknown state %S" name)
      | (n, _) :: rest -> if n = name then i else find (i + 1) rest
    in
    find 0 named
  in
  let parse_belief (lineno, body) =
    (* body: "fast: 1/2, slow: 1/2" *)
    let probs = Array.make (State.space_size space) Rational.zero in
    List.iter
      (fun part ->
        let part = String.trim part in
        if part <> "" then begin
          match String.index_opt part ':' with
          | None -> fail_line lineno (Printf.sprintf "expected 'state: prob' in %S" part)
          | Some i ->
            let name = String.trim (String.sub part 0 i) in
            let prob =
              parse_rational lineno (String.trim (String.sub part (i + 1) (String.length part - i - 1)))
            in
            let k = index_of lineno name in
            probs.(k) <- Rational.add probs.(k) prob
        end)
      (String.split_on_char ',' body);
    try Belief.make space probs with Invalid_argument m -> fail_line lineno m
  in
  Beliefs (Array.of_list (List.rev_map parse_belief acc.beliefs))

let parse text =
  let acc = scan ~classes:false text in
  let weights =
    match acc.weights with Some w -> w | None -> invalid_arg "Game_io: missing 'weights' line"
  in
  let intervals = List.rev acc.intervals in
  check_widths acc.links
    (List.rev_map
       (fun (lineno, name, st) ->
         (lineno, Printf.sprintf "state %S" name, Array.length (State.capacities st)))
       acc.states
    @ List.rev_map (fun (lineno, row) -> (lineno, "capacities row", Array.length row)) acc.capacities
    @ List.map (fun (lineno, row) -> (lineno, "interval row", pair_width lineno "interval row" row)) intervals);
  (* Each backend requires its own form. *)
  let strict = backend_of acc = "strict" in
  let rows =
    if strict then begin
      (match (acc.capacities, acc.beliefs, acc.states, intervals) with
       | [], [], [], _ :: _ -> ()
       | [], [], [], [] -> invalid_arg "Game_io: strict form requires 'interval' rows"
       | _ -> invalid_arg "Game_io: strict form uses 'interval' rows only");
      Intervals (Array.of_list (List.map snd intervals))
    end
    else
      match (intervals, acc.capacities, acc.beliefs) with
      | (lineno, _) :: _, _, _ -> fail_line lineno "'interval' rows require 'uncertainty strict'"
      | [], [], [] -> invalid_arg "Game_io: need either 'capacities' rows or 'belief' lines"
      | [], _ :: _, _ :: _ -> invalid_arg "Game_io: cannot mix 'capacities' and 'belief' forms"
      | [], rows, [] -> Capacities (Array.of_list (List.rev_map snd rows))
      | [], [], _ :: _ -> parse_beliefs acc
  in
  let lines = Array.of_list (List.map fst intervals) in
  game_of_table ~prefix:(prefix acc lines)
    { counts = None; weights; presence = Option.map snd acc.presence; rows }

let parse_cgame text =
  let acc = scan ~classes:true text in
  let rows = List.rev acc.classes in
  if rows = [] then invalid_arg "Game_io: need at least one 'class' row";
  (* A strict class row carries a 'lo hi' pair per link. *)
  let strict = backend_of acc = "strict" in
  check_widths acc.links
    (List.map
       (fun (lineno, _, _, caps) ->
         (lineno, "class row", if strict then pair_width lineno "strict class row" caps else Array.length caps))
       rows);
  let column f = Array.of_list (List.map f rows) in
  let caps = column (fun (_, _, _, caps) -> caps) in
  cgame_of_table
    ~prefix:(prefix acc (column (fun (lineno, _, _, _) -> lineno)))
    {
      counts = Some (column (fun (_, count, _, _) -> count));
      weights = column (fun (_, _, weight, _) -> weight);
      presence = Option.map snd acc.presence;
      rows = (if strict then Intervals caps else Capacities caps);
    }

(* ------------------------------------------------------------------ *)
(* Writers: the table, printed                                         *)

(* Files carry an 'uncertainty' stanza (plus its companion lines)
   exactly when the backend is non-Bayesian, so all-Bayesian output is
   byte-identical to the pre-backend format. *)
let render t =
  let buf = Buffer.create 256 in
  let line directive qs =
    Buffer.add_string buf directive;
    Array.iter (fun q -> Buffer.add_string buf (" " ^ Rational.to_string q)) qs;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "links %d\n" (table_links t));
  (match table_kind t with
   | Uncertainty.Bayesian -> ()
   | k -> Buffer.add_string buf (Printf.sprintf "uncertainty %s\n" (Uncertainty.kind_name k)));
  if Option.is_none t.counts then line "weights" t.weights;
  Option.iter (line "presence") t.presence;
  let directive = match t.rows with Intervals _ -> "interval" | _ -> "capacities" in
  Array.iteri
    (fun i row ->
      match t.counts with
      | None -> line directive row
      | Some counts ->
        line (Printf.sprintf "class %d %s" counts.(i) (Rational.to_string t.weights.(i))) row)
    (table_rows t);
  Buffer.contents buf

let to_string g = render (table_of_game ~what:"Game_io.to_string" g)
let to_class_string g = render (table_of_cgame ~what:"Game_io.to_class_string" g)
