(* The streaming service layer (lib/serve): binary wire codec, mutation
   log parsing, and incremental equilibrium repair.

   The wire tests pin byte-exactness both ways — decode(encode x) is x
   and encode(decode bytes) reproduces bytes — plus every offset-pinned
   decoder error.  The repair tests are differential: tens of thousands
   of randomized mutation sequences must leave the live Cview cursor
   bit-identical to a fresh cursor re-materialised through
   to_cgame/of_profile, undo-all must restore the original state (fast
   lane included), every repaired profile must pass the exact is_nash
   that a full re-solve passes, and a cursor's Nash certificate must
   never outlive its equilibrium. *)

open Model
open Numeric
module Mutation = Serve.Mutation
module Wire = Serve.Wire
module Repair = Serve.Repair

let check_q = Alcotest.testable Rational.pp Rational.equal
let q = Rational.of_ints

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Small class games across all three uncertainty backends; every
   quantity the mutations can touch is drawn fresh per trial. *)
let random_cgame rng =
  let k = 2 + Prng.Rng.int rng 3 and m = 2 + Prng.Rng.int rng 2 in
  let counts = Array.init k (fun _ -> 1 + Prng.Rng.int rng 4) in
  let weights = Array.init k (fun _ -> q (1 + Prng.Rng.int rng 6) (1 + Prng.Rng.int rng 3)) in
  let row () = Array.init m (fun _ -> q (1 + Prng.Rng.int rng 8) (1 + Prng.Rng.int rng 2)) in
  match Prng.Rng.int rng 3 with
  | 0 -> Cgame.of_capacities ~counts ~weights (Array.init k (fun _ -> row ()))
  | 1 ->
    let uncertainty =
      Array.init k (fun _ ->
          let p = q (1 + Prng.Rng.int rng 4) 4 in
          Uncertainty.participation ~presence:p (Belief.certain (State.make (row ()))))
    in
    Cgame.make_uncertain ~counts ~weights ~uncertainty
  | _ ->
    let uncertainty =
      Array.init k (fun _ ->
          Uncertainty.strict_of_intervals
            (Array.map (fun lo -> (lo, Rational.add lo Rational.one)) (row ())))
    in
    Cgame.make_uncertain ~counts ~weights ~uncertainty

(* One mutation that is valid against the live view: departures name an
   occupied link and never empty their class. *)
let random_mutation rng v =
  let k = Cview.classes v and m = Cview.links v in
  let cls = Prng.Rng.int rng k in
  match Prng.Rng.int rng 4 with
  | 0 -> Mutation.Arrive { cls; link = Prng.Rng.int rng m; count = 1 + Prng.Rng.int rng 5 }
  | 1 ->
    let link = ref 0 in
    for l = m - 1 downto 0 do
      if Cview.assigned v cls l > 0 then link := l
    done;
    let avail = min (Cview.assigned v cls !link) (Cview.class_count v cls - 1) in
    if avail <= 0 then Mutation.Arrive { cls; link = !link; count = 1 }
    else Mutation.Depart { cls; link = !link; count = 1 + Prng.Rng.int rng avail }
  | 2 -> Mutation.Reweight { cls; weight = q (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 4) }
  | _ ->
    Mutation.Revise_capacity
      { cls; link = Prng.Rng.int rng m; cap = q (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 3) }

(* ------------------------------------------------------------------ *)
(* Wire round-trips                                                    *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_class_text text =
  String.split_on_char '\n' text
  |> List.exists (fun l -> String.length l >= 6 && String.sub l 0 6 = "class ")

(* "../games" under dune runtest (cwd is _build/default/test), "games"
   under a bare dune exec from the project root. *)
let games_dir () = if Sys.file_exists "../games" then "../games" else "games"

(* The shipped game files and mutation log, sorted. *)
let shipped_files () =
  Sys.readdir (games_dir ()) |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".game" || Filename.check_suffix f ".mutlog")
  |> List.sort compare (* lint: allow R1 — sorting file names *)

(* Every shipped game file must survive text -> value -> bytes -> value
   -> bytes with the text writer agreeing at both ends and the second
   encoding byte-identical to the first. *)
let test_wire_game_files () =
  let dir = games_dir () in
  let files = List.filter (fun f -> Filename.check_suffix f ".game") (shipped_files ()) in
  Alcotest.(check bool) "found shipped game files" true (List.length files >= 5);
  List.iter
    (fun f ->
      let text = read_file (Filename.concat dir f) in
      if is_class_text text then begin
        let g = Game_io.parse_cgame text in
        let bytes = Wire.encode_cgame g in
        Alcotest.(check bool) (f ^ ": is_wire") true (Wire.is_wire bytes);
        let g' = Wire.decode_cgame bytes in
        Alcotest.(check string)
          (f ^ ": class text agrees after decode")
          (Game_io.to_class_string g) (Game_io.to_class_string g');
        Alcotest.(check string) (f ^ ": re-encode is byte-identical") bytes (Wire.encode_cgame g')
      end
      else begin
        let g = Game_io.parse text in
        let bytes = Wire.encode_game g in
        Alcotest.(check bool) (f ^ ": is_wire") true (Wire.is_wire bytes);
        let g' = Wire.decode_game bytes in
        Alcotest.(check string)
          (f ^ ": text agrees after decode")
          (Game_io.to_string g) (Game_io.to_string g');
        Alcotest.(check string) (f ^ ": re-encode is byte-identical") bytes (Wire.encode_game g')
      end)
    files

let test_wire_cgame_roundtrip () =
  let rng = Prng.Rng.create 77 in
  let all = Buffer.create 65536 in
  for trial = 1 to 200 do
    let g = random_cgame rng in
    let bytes = Wire.encode_cgame g in
    let g' = Wire.decode_cgame bytes in
    if Game_io.to_class_string g <> Game_io.to_class_string g' then
      Alcotest.failf "trial %d: class text diverged after wire round-trip" trial;
    if Wire.encode_cgame g' <> bytes then
      Alcotest.failf "trial %d: re-encoding is not byte-identical" trial;
    Buffer.add_string all (Game_io.to_class_string g);
    Buffer.add_string all bytes
  done;
  (* All three backends in both formats, against a fixed digest. *)
  Alcotest.(check string) "golden digest of 200 class games" "fa86ffe93e92ac719bea444cc296c680"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* A log mixing every mutation kind, including a rational whose
   magnitude needs the multi-byte bigint path. *)
let test_wire_log_roundtrip () =
  let huge =
    (* 3^64 / 7: both components far beyond one native word's worth of
       little-endian bytes. *)
    let n = ref Rational.one in
    for _ = 1 to 64 do
      n := Rational.mul !n (Rational.of_int 3)
    done;
    Rational.div !n (Rational.of_int 7)
  in
  let log =
    [
      [
        Mutation.Arrive { cls = 0; link = 2; count = 5 };
        Mutation.Depart { cls = 1; link = 0; count = 3 };
      ];
      [];
      [
        Mutation.Reweight { cls = 2; weight = huge };
        Mutation.Revise_capacity { cls = 0; link = 1; cap = q 9 4 };
      ];
    ]
  in
  let bytes = Wire.encode_log log in
  let log' = Wire.decode_log bytes in
  Alcotest.(check string) "logs agree as canonical text" (Mutation.render log)
    (Mutation.render log');
  Alcotest.(check string) "re-encode is byte-identical" bytes (Wire.encode_log log');
  (* The text form is itself a round-trip: parse (render log) = log. *)
  Alcotest.(check string) "parse . render is the identity" (Mutation.render log)
    (Mutation.render (Mutation.parse (Mutation.render log)))

(* ------------------------------------------------------------------ *)
(* Golden pins and codec fuzz                                          *)

(* Digests of every writer's and encoder's output on the shipped files.
   The round-trip tests compare each codec with itself; fixed digests
   also catch a format shift made in both directions at once. *)
let golden =
  [
    ("participation.game", "to_string", "e1e9294622c34d9cc688957b56f328b5");
    ("participation.game", "encode_game", "50f110535c6150c4df604076aad705e1");
    ("quickstart.game", "to_string", "2d77dc0aed998bb7273c2bda62c0ca1a");
    ("quickstart.game", "encode_game", "3e04d1fc9a539d085dd64830728c3de5");
    ("stream.game", "to_class_string", "7afc1eff2cb2d3283f05ede8a747fb7a");
    ("stream.game", "encode_cgame", "de30263d08d2a506a8badeb3a42f0b3c");
    ("stream.mutlog", "render", "ae6887ca0192b7966bd35ae98e1bd8a2");
    ("stream.mutlog", "encode_log", "776cb592586163ab44b6195dd1f1f2d7");
    ("strict.game", "to_string", "3a530b82576b9f0d777d0487c0850bc5");
    ("strict.game", "encode_game", "60b26a4b563284516081a83b22a492e9");
    ("uniform.game", "to_string", "911bf852035cbb8def79aa08743bc950");
    ("uniform.game", "encode_game", "6f2d14dcb75358bbfab1f0a3bdf42e18");
    ("witness.game", "to_string", "bf19266893a21d9d39a98c6a525c582b");
    ("witness.game", "encode_game", "3889cd288ef9a4c57ffa73106e304749");
  ]

let writer_outputs f text =
  if Filename.check_suffix f ".mutlog" then
    let log = Mutation.parse text in
    [ ("render", Mutation.render log); ("encode_log", Wire.encode_log log) ]
  else if is_class_text text then
    let g = Game_io.parse_cgame text in
    [ ("to_class_string", Game_io.to_class_string g); ("encode_cgame", Wire.encode_cgame g) ]
  else
    let g = Game_io.parse text in
    [
      ("to_string", Game_io.to_string g);
      ("encode_game", Wire.encode_game g);
    ]

let test_golden_digests () =
  List.iter
    (fun f ->
      let outputs = writer_outputs f (read_file (Filename.concat (games_dir ()) f)) in
      List.iter
        (fun (writer, out) ->
          match List.find_opt (fun (f', w, _) -> f' = f && w = writer) golden with
          | None -> Alcotest.failf "%s: no golden digest for %s" f writer
          | Some (_, _, hex) ->
            Alcotest.(check string) (f ^ " " ^ writer) hex (Digest.to_hex (Digest.string out)))
        outputs)
    (shipped_files ())

let fuzz_tokens =
  [|
    "1/0"; "1/-0"; "0/0"; "-1"; "0"; "0x10"; "2/4"; "1.5"; "x"; "#"; ""; "1e3"; "a:"; "1,";
    "99999999999999999999999"; "links"; "weights"; "state"; "belief"; "capacities"; "class";
    "presence"; "uncertainty"; "interval"; "bayesian"; "participation"; "strict"; "batch";
    "arrive"; "depart"; "reweight"; "capacity";
  |]

(* One to four edits: drop a line, copy one line over another, or
   replace a word with a token from [fuzz_tokens]. *)
let mutate_text rng text =
  let lines =
    Array.of_list
      (List.map
         (fun l -> Array.of_list (String.split_on_char ' ' l))
         (String.split_on_char '\n' text))
  in
  let pick a = a.(Prng.Rng.int rng (Array.length a)) in
  for _ = 0 to Prng.Rng.int rng 4 do
    let i = Prng.Rng.int rng (Array.length lines) in
    match Prng.Rng.int rng 4 with
    | 0 -> lines.(i) <- [||]
    | 1 -> lines.(i) <- pick lines
    | _ ->
      let words = Array.copy lines.(i) in
      if Array.length words > 0 then words.(Prng.Rng.int rng (Array.length words)) <- pick fuzz_tokens;
      lines.(i) <- words
  done;
  String.concat "\n" (Array.to_list (Array.map (fun w -> String.concat " " (Array.to_list w)) lines))

(* Flip bits or bytes, or truncate. *)
let mutate_bytes rng s =
  let n = String.length s in
  if Prng.Rng.int rng 5 = 0 then String.sub s 0 (Prng.Rng.int rng n)
  else begin
    let b = Bytes.of_string s in
    for _ = 0 to Prng.Rng.int rng 2 do
      let i = Prng.Rng.int rng n in
      let c = if Prng.Rng.bool rng then Char.code s.[i] lxor (1 lsl Prng.Rng.int rng 8) else Prng.Rng.int rng 256 in
      Bytes.set b i (Char.chr c)
    done;
    Bytes.to_string b
  end

(* [Some v] on success, [None] on an [Invalid_argument] carrying
   [prefix]; anything else fails the test. *)
let decode_or_reject ~prefix input f =
  match f input with
  | v -> Some v
  | exception Invalid_argument msg when String.starts_with ~prefix msg -> None
  | exception e -> Alcotest.failf "%S raised %s" input (Printexc.to_string e)

let wire_reencode s =
  match Wire.peek_kind s with
  | Wire.Game -> Wire.encode_game (Wire.decode_game s)
  | Wire.Cgame -> Wire.encode_cgame (Wire.decode_cgame s)
  | Wire.Log -> Wire.encode_log (Wire.decode_log s)

(* How file [f]'s form is read: the reader's error prefix, and a decoder
   returning the text rendering and the wire bytes of what it read. *)
let text_codec f text =
  if Filename.check_suffix f ".mutlog" then
    ( "Mutation: ",
      fun t ->
        let log = Mutation.parse t in
        (Mutation.render log, Wire.encode_log log) )
  else if is_class_text text then
    ( "Game_io: ",
      fun t ->
        let g = Game_io.parse_cgame t in
        (Game_io.to_class_string g, Wire.encode_cgame g) )
  else
    ( "Game_io: ",
      fun t ->
        let g = Game_io.parse t in
        (Game_io.to_string g, Wire.encode_game g) )

(* A decoded text input re-renders stably and its wire form round-trips
   byte-exactly; a decoded wire input re-encodes to the input bytes. *)
let test_codec_fuzz () =
  let rng = Prng.Rng.create 9 in
  List.iter
    (fun f ->
      let text = read_file (Filename.concat (games_dir ()) f) in
      let prefix, codec = text_codec f text in
      for _ = 1 to 5000 do
        decode_or_reject ~prefix (mutate_text rng text) codec
        |> Option.iter (fun (rendered, bytes) ->
               if fst (codec rendered) <> rendered then
                 Alcotest.failf "%s: re-render is not stable:\n%s" f rendered;
               if wire_reencode bytes <> bytes then
                 Alcotest.failf "%s: text-decoded wire form does not round-trip" f)
      done;
      let bytes = snd (codec text) in
      for _ = 1 to 5000 do
        let input = mutate_bytes rng bytes in
        decode_or_reject ~prefix:"Wire: " input wire_reencode
        |> Option.iter (fun out ->
               if out <> input then Alcotest.failf "%s: re-encoding is not byte-identical" f)
      done)
    (shipped_files ())

(* ------------------------------------------------------------------ *)
(* Wire error pins                                                     *)

let raises_invalid msg f =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))

(* Hand-built log payloads: header (7 bytes) + u32 batch count + u32
   mutation count puts the first opcode at offset 15. *)
let log_payload body =
  "SRWF\001\000\005" ^ "\001\000\000\000" ^ "\001\000\000\000" ^ body

let test_wire_errors () =
  raises_invalid "Wire: offset 0: truncated input (expected 4-byte magic)" (fun () ->
      Wire.decode_game "SR");
  raises_invalid "Wire: offset 0: bad magic (not a selfish_routing wire payload)" (fun () ->
      Wire.decode_game "XXXXtrailing");
  raises_invalid "Wire: offset 4: unsupported wire version 2 (expected 1)" (fun () ->
      Wire.decode_game "SRWF\002\000\001");
  raises_invalid "Wire: offset 6: unknown payload kind 9" (fun () ->
      Wire.decode_game "SRWF\001\000\009");
  (* Kind bytes 3 and 4 are unassigned. *)
  raises_invalid "Wire: offset 6: unknown payload kind 3" (fun () ->
      Wire.decode_game "SRWF\001\000\003");
  raises_invalid "Wire: offset 6: unknown payload kind 4" (fun () ->
      Wire.peek_kind "SRWF\001\000\004");
  (* Two empty batches: the batch counts sit at offsets 11 and 15. *)
  let log_bytes = Wire.encode_log [ []; [] ] in
  raises_invalid "Wire: offset 6: expected game payload (kind 1), found mutation log (kind 5)"
    (fun () -> Wire.decode_game log_bytes);
  raises_invalid
    (Printf.sprintf "Wire: offset %d: trailing bytes after payload" (String.length log_bytes))
    (fun () -> Wire.decode_log (log_bytes ^ "x"));
  (* A truncated body fails inside the payload, not at the header. *)
  let cut = String.sub log_bytes 0 (String.length log_bytes - 2) in
  raises_invalid "Wire: offset 15: truncated input (need 4 more bytes, 2 available)" (fun () ->
      Wire.decode_log cut);
  (* An element count larger than the remaining bytes is rejected
     before any allocation. *)
  raises_invalid "Wire: offset 12: user count 16777216 exceeds remaining payload" (fun () ->
      Wire.decode_game "SRWF\001\000\001\000\000\000\000\001");
  (* A rational is canonical (lowest terms, zero as 0/1), so decoding
     never normalises what re-encoding would change: reweight to 2/4
     and to 0/5, the weight starting at offset 20. *)
  raises_invalid "Wire: offset 20: non-canonical rational" (fun () ->
      Wire.decode_log
        (log_payload "\002\000\000\000\000\000\001\000\000\000\002\000\001\000\000\000\004"));
  raises_invalid "Wire: offset 20: non-canonical rational" (fun () ->
      Wire.decode_log
        (log_payload "\002\000\000\000\000\000\000\000\000\000\000\001\000\000\000\005"));
  ()

let test_wire_bigint_errors () =
  raises_invalid "Wire: offset 15: unknown mutation opcode 9" (fun () ->
      Wire.decode_log (log_payload "\009"));
  (* reweight: opcode (15) + u32 class puts the weight bigint at 20;
     sign byte + u32 length put its magnitude at 25. *)
  raises_invalid "Wire: offset 26: non-minimal integer encoding" (fun () ->
      Wire.decode_log (log_payload "\002\000\000\000\000\000\002\000\000\000\005\000"));
  raises_invalid "Wire: offset 20: negative zero" (fun () ->
      Wire.decode_log (log_payload "\002\000\000\000\000\001\000\000\000\000"));
  raises_invalid "Wire: offset 20: bad sign byte 7" (fun () ->
      Wire.decode_log (log_payload "\002\000\000\000\000\007"));
  (* A negative denominator decodes as a valid bigint but is rejected
     as a rational component (numerator 1 first, then den -2). *)
  raises_invalid "Wire: offset 26: denominator must be positive" (fun () ->
      Wire.decode_log
        (log_payload "\002\000\000\000\000\000\001\000\000\000\001\001\001\000\000\000\002"));
  raises_invalid "Wire: offset 15: weight must be positive" (fun () ->
      (* reweight with weight 0/1 *)
      Wire.decode_log
        (log_payload "\002\000\000\000\000\000\000\000\000\000\000\001\000\000\000\001"));
  raises_invalid "Wire: offset 15: arrive count must be positive" (fun () ->
      Wire.decode_log (log_payload "\000\000\000\000\000\001\000\000\000\000\000\000\000"));
  raises_invalid "Wire: offset 7: mutation log needs at least one batch" (fun () ->
      Wire.decode_log "SRWF\001\000\005\000\000\000\000")

let test_game_io_rejects_wire () =
  let g = Game.kp ~weights:[| Rational.one |] ~capacities:[| Rational.one; Rational.one |] in
  let bytes = Wire.encode_game g in
  let expected =
    "Game_io: line 1: binary wire payload (decode it with Serve.Wire or 'selfish_routing wire')"
  in
  Alcotest.check_raises "parse rejects SRWF" (Invalid_argument expected) (fun () ->
      ignore (Game_io.parse bytes));
  Alcotest.check_raises "parse_cgame rejects SRWF" (Invalid_argument expected) (fun () ->
      ignore (Game_io.parse_cgame bytes))

(* ------------------------------------------------------------------ *)
(* Mutation parse error pins                                           *)

let test_mutation_parse_errors () =
  raises_invalid "Mutation: line 1: mutation before first 'batch' directive" (fun () ->
      Mutation.parse "arrive 0 0 1");
  raises_invalid "Mutation: need at least one 'batch' directive" (fun () ->
      Mutation.parse "# only a comment\n");
  raises_invalid "Mutation: line 2: expected: arrive <class> <link> <count>" (fun () ->
      Mutation.parse "batch\narrive 0 0");
  raises_invalid "Mutation: line 2: bad count \"x\"" (fun () ->
      Mutation.parse "batch\narrive 0 0 x");
  raises_invalid "Mutation: line 2: count must be positive" (fun () ->
      Mutation.parse "batch\ndepart 0 0 0");
  raises_invalid "Mutation: line 2: class must be non-negative" (fun () ->
      Mutation.parse "batch\narrive -1 0 1");
  raises_invalid "Mutation: line 2: weight must be positive" (fun () ->
      Mutation.parse "batch\nreweight 0 0");
  raises_invalid "Mutation: line 2: bad number \"7//2\"" (fun () ->
      Mutation.parse "batch\ncapacity 0 1 7//2");
  raises_invalid "Mutation: line 3: unknown directive \"rewight\"" (fun () ->
      Mutation.parse "batch\narrive 0 0 1\nrewight 0 2");
  raises_invalid "Mutation: line 1: expected: batch (no arguments)" (fun () ->
      Mutation.parse "batch 3")

(* ------------------------------------------------------------------ *)
(* Structural-delta differential harness                               *)

(* The O(k·m) fold SC1 = Σ_{c,l} e_{c,l}·latency(c, l): the reference
   for the cursor's incremental aggregates. *)
let reference_sc1 v =
  let acc = ref Rational.zero in
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      let e = Cview.assigned v c l in
      if e > 0 then
        acc := Rational.add !acc (Rational.mul (Rational.of_int e) (Cview.latency v c l))
    done
  done;
  !acc

(* The live SC1 must equal the fold and a fresh cursor's first query. *)
let check_sc1 what v =
  let live = Cview.social_cost1 v in
  if not (Rational.equal live (reference_sc1 v)) then
    Alcotest.failf "%s: live SC1 %s differs from the fold %s" what (Rational.to_string live)
      (Rational.to_string (reference_sc1 v));
  let fresh = Cview.of_profile (Cview.to_cgame v) (Cview.profile v) in
  if not (Rational.equal live (Cview.social_cost1 fresh)) then
    Alcotest.failf "%s: live SC1 differs from a fresh cursor" what

let check_view_identity trial v =
  let g' = Cview.to_cgame v in
  let fresh = Cview.of_profile g' (Cview.profile v) in
  let k = Cview.classes v and m = Cview.links v in
  for l = 0 to m - 1 do
    if not (Rational.equal (Cview.load v l) (Cview.load fresh l)) then
      Alcotest.failf "trial %d: load %d diverged from re-materialised view" trial l
  done;
  for c = 0 to k - 1 do
    if not (Rational.equal (Cview.weight v c) (Cview.weight fresh c)) then
      Alcotest.failf "trial %d: weight %d diverged" trial c;
    for l = 0 to m - 1 do
      if not (Rational.equal (Cview.capacity v c l) (Cview.capacity fresh c l)) then
        Alcotest.failf "trial %d: capacity (%d,%d) diverged" trial c l;
      if not (Rational.equal (Cview.latency v c l) (Cview.latency fresh c l)) then
        Alcotest.failf "trial %d: latency (%d,%d) diverged" trial c l
    done
  done;
  if Cview.is_nash v <> Cview.is_nash fresh then
    Alcotest.failf "trial %d: is_nash diverged from re-materialised view" trial;
  check_sc1 (Printf.sprintf "trial %d" trial) v

(* A recorded block move of some occupied class-link pair. *)
let random_move rng v =
  let cls = Prng.Rng.int rng (Cview.classes v) and m = Cview.links v in
  let src = ref (Prng.Rng.int rng m) in
  while Cview.assigned v cls !src = 0 do
    src := (!src + 1) mod m
  done;
  Cview.move v ~cls ~src:!src ~dst:(Prng.Rng.int rng m)
    ~count:(1 + Prng.Rng.int rng (Cview.assigned v cls !src))

(* 10^4 randomized sequences of mutations and block moves: after
   every sequence the live cursor is bit-identical to a fresh of_profile (to_cgame v)
   (profile v), and undoing everything restores the original state —
   loads, profile, SC1 and the packed fast lane.  SC1 is queried before
   the sequence and now and then inside it, so the deltas land on live
   aggregates. *)
let test_differential_mutations () =
  let rng = Prng.Rng.create 2006 in
  for trial = 1 to 10_000 do
    let g = random_cgame rng in
    let x = Algo.Cbr.proportional_start g in
    let v = Cview.of_profile g x in
    let loads0 = Cview.loads v and packed0 = Cview.packed v in
    let sc0 = Cview.social_cost1 v in
    Alcotest.check check_q "initial SC1 is the fold" (reference_sc1 v) sc0;
    let len = 1 + Prng.Rng.int rng 6 in
    for _ = 1 to len do
      if Prng.Rng.int rng 3 = 0 then random_move rng v
      else Mutation.apply v (random_mutation rng v);
      if Prng.Rng.int rng 3 = 0 then check_sc1 (Printf.sprintf "trial %d" trial) v
    done;
    check_view_identity trial v;
    while Cview.depth v > 0 do
      Cview.undo v
    done;
    Alcotest.check check_q "undo-all restores SC1" sc0 (Cview.social_cost1 v);
    if Cview.revised v then Alcotest.failf "trial %d: undo-all left revisions applied" trial;
    if Cview.packed v <> packed0 then
      Alcotest.failf "trial %d: undo-all did not restore the fast lane" trial;
    Array.iteri
      (fun l q0 ->
        if not (Rational.equal q0 (Cview.load v l)) then
          Alcotest.failf "trial %d: undo-all did not restore load %d" trial l)
      loads0;
    let x' = Cview.profile v in
    Array.iteri
      (fun c row ->
        Array.iteri
          (fun l e ->
            if e <> x'.(c).(l) then Alcotest.failf "trial %d: undo-all changed the profile" trial)
          row)
      x
  done

(* A packing-hostile weight revision must spill the fast lane in place
   and undo must reinstate it. *)
let test_packed_spill_and_restore () =
  let g =
    Cgame.kp
      ~counts:[| 3; 2 |]
      ~weights:[| Rational.of_int 2; Rational.of_int 1 |]
      ~capacities:[| Rational.of_int 3; Rational.of_int 1 |]
  in
  let v = Cview.of_profile g (Algo.Cbr.proportional_start g) in
  Alcotest.(check bool) "integer game starts packed" true (Cview.packed v);
  let before = Cview.loads v in
  Cview.revise_weight v ~cls:0 (q 1 3);
  Alcotest.(check bool) "denominator 3 spills the lane" false (Cview.packed v);
  Alcotest.check check_q "spilled weight visible" (q 1 3) (Cview.weight v 0);
  Cview.undo v;
  Alcotest.(check bool) "undo reinstates the packed lane" true (Cview.packed v);
  Alcotest.(check (array check_q)) "undo restores the loads" before (Cview.loads v)

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)

(* Generate a batch that is valid from the current equilibrium (by
   applying to the live view, then undoing), then repair and check the
   exact verdict a full re-solve reaches. *)
let test_repair_differential () =
  let rng = Prng.Rng.create 4242 in
  for trial = 1 to 1_200 do
    let g = random_cgame rng in
    let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
    if not o.Algo.Cbr.converged then Alcotest.failf "trial %d: seed solve diverged" trial;
    let v = Cview.of_profile g o.Algo.Cbr.profile in
    ignore (Cview.social_cost1 v);
    let d0 = Cview.depth v in
    let len = 1 + Prng.Rng.int rng 4 in
    let batch =
      List.init len (fun _ ->
          let mu = random_mutation rng v in
          Mutation.apply v mu;
          mu)
    in
    while Cview.depth v > d0 do
      Cview.undo v
    done;
    let r = Repair.repair_batch v batch in
    if not r.Repair.nash then Alcotest.failf "trial %d: repair returned nash=false" trial;
    if not (Cview.is_nash v) then Alcotest.failf "trial %d: repaired view is not Nash" trial;
    check_sc1 (Printf.sprintf "trial %d" trial) v;
    (* The full re-solve reaches the same verdict on the same game. *)
    let g' = Cview.to_cgame v in
    let o' = Algo.Cbr.converge g' (Algo.Cbr.proportional_start g') in
    if not o'.Algo.Cbr.converged then Alcotest.failf "trial %d: re-solve diverged" trial;
    if not (Cview.is_nash (Cview.of_profile g' o'.Algo.Cbr.profile)) then
      Alcotest.failf "trial %d: re-solve verdict diverged" trial
  done

(* The exact verdict on a fresh cursor over the live state: never reads
   or sets [v]'s certificate. *)
let fresh_is_nash v = Cview.is_nash (Cview.of_profile (Cview.to_cgame v) (Cview.profile v))

(* A cursor that was solved in place, as [selfish_routing serve] does,
   so it starts certified. *)
let solved_cursor trial g =
  let v = Cview.of_profile g (Algo.Cbr.proportional_start g) in
  let _, _, converged = Algo.Cbr.converge_in_place ~max_steps:1_000_000 v in
  if not converged then Alcotest.failf "trial %d: seed solve diverged" trial;
  Cview.clear_history v;
  v

(* Many batches on one live cursor, so later batches begin certified and
   skip the final exact scan.  A twin cursor replays every batch with
   its certificate cleared first (a recorded no-op move), so it always
   takes the exact-scan path: both must report the same outcome and
   reach the same profile, and after every batch the test's own exact
   scan must agree that the profile is Nash. *)
let test_repair_multi_batch () =
  let rng = Prng.Rng.create 1818 in
  let batches = 24 and began_certified = ref 0 and total = ref 0 in
  for trial = 1 to 150 do
    let g = random_cgame rng in
    let v = solved_cursor trial g in
    let twin = Cview.of_profile g (Cview.profile v) in
    for b = 1 to batches do
      (* Generated on the twin, which is uncertified anyway. *)
      let batch =
        List.init (1 + Prng.Rng.int rng 4) (fun _ ->
            let mu = random_mutation rng twin in
            Mutation.apply twin mu;
            mu)
      in
      while Cview.depth twin > 0 do
        Cview.undo twin
      done;
      incr total;
      if Cview.certified v then incr began_certified;
      Cview.move twin ~cls:0 ~src:0 ~dst:0 ~count:0;
      if Cview.certified twin then Alcotest.failf "trial %d: a move left the twin certified" trial;
      let r = Repair.repair_batch v batch and r' = Repair.repair_batch twin batch in
      if r <> r' then Alcotest.failf "trial %d batch %d: certified outcome differs" trial b;
      if Cview.profile v <> Cview.profile twin then
        Alcotest.failf "trial %d batch %d: certified profile differs" trial b;
      if not (Cview.certified v && r.Repair.nash) then
        Alcotest.failf "trial %d batch %d: repair did not end certified" trial b;
      if not (fresh_is_nash v) then Alcotest.failf "trial %d batch %d: not Nash" trial b;
      Cview.clear_history v;
      Cview.clear_history twin
    done
  done;
  if 10 * !began_certified < 9 * !total then
    Alcotest.failf "only %d of %d batches began certified" !began_certified !total

(* [certified v] implies [is_nash v] along random sequences of moves,
   undos, mutations, repairs and history clears.  Repairs start from
   both certified and arbitrary states, so the skip, the exact scan and
   the fallback all run; a repair that runs out of budget rolls back. *)
let test_certificate_property () =
  let rng = Prng.Rng.create 2718 in
  let steps = ref 0 and certified_steps = ref 0 in
  for trial = 1 to 300 do
    let v = solved_cursor trial (random_cgame rng) in
    for _ = 1 to 40 do
      (match Prng.Rng.int rng 6 with
       | 0 -> random_move rng v
       | 1 -> if Cview.depth v > 0 then Cview.undo v
       | 2 -> Mutation.apply v (random_mutation rng v)
       | 3 -> Cview.clear_history v
       | _ -> (
         let batch = List.init (Prng.Rng.int rng 3) (fun _ -> random_mutation rng v) in
         match Repair.repair_batch ~max_steps:10_000 v batch with
         | _ -> ()
         | exception Invalid_argument _ -> ()));
      incr steps;
      if Cview.certified v then begin
        incr certified_steps;
        if not (fresh_is_nash v) then Alcotest.failf "trial %d: certified but not Nash" trial
      end
    done
  done;
  if 4 * !certified_steps < !steps then
    Alcotest.failf "only %d of %d steps ended certified" !certified_steps !steps

(* Under SELFISH_SANITIZE, [certify] re-proves its claim with the exact
   scan and refuses a profile that is not Nash. *)
let test_certify_sanitized () =
  let g =
    Cgame.kp ~counts:[| 4 |] ~weights:[| Rational.one |]
      ~capacities:[| Rational.one; Rational.one |]
  in
  let v = Cview.of_profile g [| [| 4; 0 |] |] in
  Alcotest.(check bool) "of_profile starts uncertified" false (Cview.certified v);
  let saved = !Sanitize.enabled in
  Sanitize.enabled := true;
  Fun.protect
    ~finally:(fun () -> Sanitize.enabled := saved)
    (fun () ->
      Alcotest.check_raises "certify of a non-Nash profile"
        (Sanitize.Violation "SELFISH_SANITIZE: Cview.certify: the profile is not a Nash equilibrium")
        (fun () -> Cview.certify v);
      Alcotest.(check bool) "refused certificate stays unset" false (Cview.certified v);
      Cview.move v ~cls:0 ~src:0 ~dst:1 ~count:2;
      Cview.certify v;
      Alcotest.(check bool) "Nash profile certifies" true (Cview.certified v);
      Cview.clear_history v;
      Alcotest.(check bool) "clear_history keeps the certificate" true (Cview.certified v))

(* The exact lane's scale S is always exactly the lcm of the live
   weight and contribution denominators.  A Participation class (bias
   ≠ 0, so the cursor is on the exact lane from the start) is reweighted
   to (p+1)/p through the first 30 primes and back; under the sanitizer
   every construction, spill and reweight re-derives the invariant
   from scratch, and S tracks the one live denominator instead of
   accumulating the primes.  Undoing everything restores S and every
   load. *)
let test_scale_invariant_sanitized () =
  let primes =
    let rec sieve acc n =
      if List.length acc = 30 then List.rev acc
      else if List.exists (fun p -> n mod p = 0) acc then sieve acc (n + 1)
      else sieve (n :: acc) (n + 1)
    in
    sieve [] 2
  in
  let saved = !Sanitize.enabled in
  Sanitize.enabled := true;
  Fun.protect
    ~finally:(fun () -> Sanitize.enabled := saved)
    (fun () ->
      let certain row = Belief.certain (State.make row) in
      let g =
        Cgame.make_uncertain ~counts:[| 3; 2; 4 |]
          ~weights:[| q 3 2; q 1 1; q 5 3 |]
          ~uncertainty:
            [| Uncertainty.participation ~presence:(q 1 2) (certain [| q 3 1; q 2 1 |]);
               Uncertainty.bayesian (certain [| q 1 1; q 5 2 |]);
               Uncertainty.participation ~presence:(q 2 3) (certain [| q 4 3; q 7 1 |]) |]
      in
      let v = Cview.of_profile g [| [| 2; 1 |]; [| 0; 2 |]; [| 3; 1 |] |] in
      Alcotest.(check bool) "participation starts on the exact lane" false (Cview.packed v);
      let big =
        Alcotest.testable (fun ppf n -> Format.pp_print_string ppf (Bigint.to_string n)) Bigint.equal
      in
      (* weights 3/2, 1, 5/3 and contributions 3/4, 1, 10/9 *)
      Alcotest.check big "S is the lcm of the live denominators" (Bigint.of_int 36) (Cview.scale v);
      let loads0 = Cview.loads v and sc0 = Cview.social_cost1 v in
      (* Class 0's pair (p+1)/p, (p+1)/2p brings the denominator p (4
         for p = 2) to class 2's 3 and 9. *)
      let reweight p =
        Cview.revise_weight v ~cls:0 (q (p + 1) p);
        let want = if p = 2 then 36 else if p = 3 then 9 else 9 * p in
        Alcotest.check big (Printf.sprintf "S at weight %d/%d" (p + 1) p) (Bigint.of_int want)
          (Cview.scale v);
        check_view_identity p v
      in
      List.iter reweight primes;
      List.iter reweight (List.rev primes);
      Cview.revise_weight v ~cls:0 (q 3 2);
      Alcotest.check big "S returns to its starting value" (Bigint.of_int 36) (Cview.scale v);
      while Cview.depth v > 0 do
        Cview.undo v
      done;
      Alcotest.check big "undo-all restores S" (Bigint.of_int 36) (Cview.scale v);
      Alcotest.(check (array check_q)) "undo-all restores the loads" loads0 (Cview.loads v);
      Alcotest.check check_q "undo-all restores SC1" sc0 (Cview.social_cost1 v))

let test_repair_argument_errors () =
  let g =
    Cgame.kp ~counts:[| 4 |] ~weights:[| Rational.one |]
      ~capacities:[| Rational.one; Rational.one |]
  in
  let v = Cview.of_profile g [| [| 4; 0 |] |] in
  raises_invalid "Repair.repair_batch: max_steps must be positive" (fun () ->
      Repair.repair_batch ~max_steps:0 v [])

(* A batch that raises must leave the view exactly as it found it:
   profile, loads, lane, undo depth, Nash certificate, the materialised
   game and SC1 (queried first, so the batch runs on live aggregates). *)
let check_rolled_back v msg run =
  let profile = Cview.profile v and loads = Cview.loads v and packed = Cview.packed v in
  let depth = Cview.depth v and game = Wire.encode_cgame (Cview.to_cgame v) in
  let sc1 = Cview.social_cost1 v and certified = Cview.certified v in
  raises_invalid msg run;
  Alcotest.(check bool) (msg ^ ": certificate rolled back") certified (Cview.certified v);
  Alcotest.check check_q (msg ^ ": SC1 rolled back") sc1 (Cview.social_cost1 v);
  check_sc1 msg v;
  if Cview.profile v <> profile then Alcotest.failf "%s: profile not rolled back" msg;
  Alcotest.(check (array check_q)) (msg ^ ": loads rolled back") loads (Cview.loads v);
  Alcotest.(check bool) (msg ^ ": lane rolled back") packed (Cview.packed v);
  Alcotest.(check int) (msg ^ ": depth rolled back") depth (Cview.depth v);
  if Wire.encode_cgame (Cview.to_cgame v) <> game then
    Alcotest.failf "%s: to_cgame not rolled back" msg

(* Clearing the history after a repaired batch (as the serve loop does)
   keeps the live state bit-identical, leaves nothing to undo, and
   later move/undo pairs still balance. *)
let test_clear_history () =
  let rng = Prng.Rng.create 1303 in
  for trial = 1 to 300 do
    let g = random_cgame rng in
    let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
    if not o.Algo.Cbr.converged then Alcotest.failf "trial %d: seed solve diverged" trial;
    let v = Cview.of_profile g o.Algo.Cbr.profile in
    let batch =
      List.init (1 + Prng.Rng.int rng 4) (fun _ ->
          let mu = random_mutation rng v in
          Mutation.apply v mu;
          mu)
    in
    while Cview.depth v > 0 do
      Cview.undo v
    done;
    ignore (Repair.repair_batch v batch);
    let game0 = Wire.encode_cgame (Cview.to_cgame v) in
    let loads0 = Cview.loads v and profile0 = Cview.profile v and revised0 = Cview.revised v in
    Cview.clear_history v;
    (match Cview.undo v with
     | () -> Alcotest.failf "trial %d: undo after clear_history succeeded" trial
     | exception Invalid_argument msg when String.equal msg "Cview.undo: empty history" -> ());
    if Cview.revised v <> revised0 then Alcotest.failf "trial %d: clear changed revised" trial;
    if Wire.encode_cgame (Cview.to_cgame v) <> game0 then
      Alcotest.failf "trial %d: clear changed to_cgame" trial;
    let same_loads () = Array.for_all2 Rational.equal loads0 (Cview.loads v) in
    if not (same_loads ()) then Alcotest.failf "trial %d: clear changed the loads" trial;
    let k = Cview.classes v and m = Cview.links v in
    for _ = 1 to 4 do
      let cls = Prng.Rng.int rng k and dst = Prng.Rng.int rng m in
      let src = ref 0 in
      while Cview.assigned v cls !src = 0 do
        incr src
      done;
      Cview.move v ~cls ~src:!src ~dst ~count:(1 + Prng.Rng.int rng (Cview.assigned v cls !src))
    done;
    while Cview.depth v > 0 do
      Cview.undo v
    done;
    if not (same_loads ()) then Alcotest.failf "trial %d: move/undo left the loads changed" trial;
    if Cview.profile v <> profile0 then Alcotest.failf "trial %d: move/undo changed the profile" trial
  done

(* An exhausted move budget must raise, never return a non-Nash
   profile, and the raise rolls back the arrivals and the moves made
   before the budget ran out. *)
let test_repair_budget_exhaustion () =
  let g =
    Cgame.kp
      ~counts:[| 12; 12 |]
      ~weights:[| Rational.one; Rational.of_int 2 |]
      ~capacities:[| Rational.of_int 3; Rational.of_int 2; Rational.one |]
  in
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  Alcotest.(check bool) "seed converged" true o.Algo.Cbr.converged;
  let v = Cview.of_profile g o.Algo.Cbr.profile in
  let batch =
    [
      Mutation.Arrive { cls = 0; link = 2; count = 30 };
      Mutation.Arrive { cls = 1; link = 2; count = 30 };
    ]
  in
  check_rolled_back v "Repair.repair_batch: did not converge within max_steps" (fun () ->
      Repair.repair_batch ~max_steps:1 v batch);
  (* The rolled-back view is still a live equilibrium: the same batch
     repairs with the default budget. *)
  Alcotest.(check bool) "batch repairs after rollback" true (Repair.repair_batch v batch).Repair.nash

(* From a non-equilibrium start an empty batch leaves nothing dirty or
   touched, so the restricted scan comes back clean at once and the
   exact verification routes into the fallback: Cbr's loop on the same
   cursor.  It must land exactly where Cbr.converge lands, and its
   moves count against the batch's one budget. *)
let test_repair_fallback () =
  let rng = Prng.Rng.create 1717 in
  let exercised = ref 0 in
  for trial = 1 to 600 do
    let g = random_cgame rng in
    let start = Algo.Cbr.proportional_start g in
    if not (Cview.is_nash (Cview.of_profile g start)) then begin
      incr exercised;
      let o = Algo.Cbr.converge g start in
      if not o.Algo.Cbr.converged then Alcotest.failf "trial %d: Cbr.converge diverged" trial;
      let steps = o.Algo.Cbr.steps in
      let check_like_cbr v (r : Repair.outcome) =
        if not (r.fallback && r.nash) then
          Alcotest.failf "trial %d: expected a verified fallback" trial;
        if r.moves <> steps || r.users_moved <> o.Algo.Cbr.users_moved then
          Alcotest.failf "trial %d: fallback counters differ from Cbr.converge" trial;
        if Cview.profile v <> o.Algo.Cbr.profile then
          Alcotest.failf "trial %d: fallback profile differs from Cbr.converge" trial
      in
      let v = Cview.of_profile g start in
      check_like_cbr v (Repair.repair_batch v []);
      let v = Cview.of_profile g start in
      if steps > 1 then
        check_rolled_back v "Repair.repair_batch: did not converge within max_steps" (fun () ->
            Repair.repair_batch ~max_steps:(steps - 1) v []);
      check_like_cbr v (Repair.repair_batch ~max_steps:steps v [])
    end
  done;
  if !exercised < 500 then
    Alcotest.failf "only %d of 600 starts were non-equilibria" !exercised;
  (* The scan and the fallback share one budget.  Class 1 arrives on
     link 1 and the scan moves its block to link 0; class 0 never gets
     dirty and sits on untouched link 3, so the clean scan misses its
     move to link 2 and the fallback makes it: two moves in all. *)
  let g =
    Cgame.of_capacities ~counts:[| 2; 4 |] ~weights:[| Rational.one; Rational.one |]
      [|
        [| q 1 1; q 1 1; q 100 1; q 1 1 |];
        [| q 1 1; q 1 1; q 1 100; q 1 100 |];
      |]
  in
  let start = [| [| 0; 0; 0; 2 |]; [| 0; 4; 0; 0 |] |] in
  let batch = [ Mutation.Arrive { cls = 1; link = 1; count = 4 } ] in
  let v = Cview.of_profile g start in
  check_rolled_back v "Repair.repair_batch: did not converge within max_steps" (fun () ->
      Repair.repair_batch ~max_steps:1 v batch);
  let r = Repair.repair_batch ~max_steps:2 v batch in
  Alcotest.(check (pair int bool)) "scan move plus fallback move" (2, true) (r.moves, r.fallback);
  Alcotest.(check (array (array int))) "repaired profile"
    [| [| 0; 0; 2; 0 |]; [| 4; 4; 0; 0 |] |] (Cview.profile v)

(* [Repair.repair_batch] replayed with the per-pair scans the per-class
   defector pass replaced: the restricted candidate loop over
   [Cview.is_defector]/[Cview.improves] (Repair's old [find_candidate],
   kept verbatim) and, for the fallback, Cbr's first-defector loop over
   [Cview.is_defector] and [Cview.best_response_for]. *)
let reference_candidate v touched dirty =
  let k = Cview.classes v and m = Cview.links v in
  let rec classes cls =
    if cls >= k then None
    else begin
      let found = ref None in
      let src = ref 0 in
      while !found = None && !src < m do
        let s = !src in
        if Cview.assigned v cls s > 0 then begin
          if dirty.(cls) || touched.(s) then begin
            if Cview.is_defector v ~cls ~src:s then found := Some (cls, s)
          end
          else begin
            let l = ref 0 in
            while !found = None && !l < m do
              if touched.(!l) && Cview.improves v ~cls ~src:s !l then found := Some (cls, s);
              incr l
            done
          end
        end;
        incr src
      done;
      match !found with Some _ as r -> r | None -> classes (cls + 1)
    end
  in
  classes 0

let reference_first_defector v =
  let all = Array.make (Cview.links v) true and dirty = Array.make (Cview.classes v) true in
  Option.map
    (fun (cls, src) -> (cls, src, fst (Cview.best_response_for v ~cls ~src)))
    (reference_candidate v all dirty)

let reference_repair ~max_steps v batch : Repair.outcome =
  let k = Cview.classes v and m = Cview.links v in
  List.iter (Mutation.apply v) batch;
  let touched = Array.make m false and dirty = Array.make k false in
  List.iter
    (fun mu ->
      match mu with
      | Mutation.Arrive { cls; link; _ } | Mutation.Depart { cls; link; _ } ->
        dirty.(cls) <- true;
        touched.(link) <- true
      | Mutation.Reweight { cls; _ } ->
        dirty.(cls) <- true;
        for l = 0 to m - 1 do
          if Cview.assigned v cls l > 0 then touched.(l) <- true
        done
      | Mutation.Revise_capacity { cls; _ } -> dirty.(cls) <- true)
    batch;
  let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a in
  let seeded_classes = count dirty and seeded_links = count touched in
  let moves = ref 0 and users_moved = ref 0 in
  let step cls src dst =
    if !moves >= max_steps then invalid_arg "reference_repair: out of budget";
    let c = Cview.max_improving_block v ~cls ~src ~dst in
    Cview.move v ~cls ~src ~dst ~count:c;
    incr moves;
    users_moved := !users_moved + c
  in
  let rec epochs () =
    match reference_candidate v touched dirty with
    | None -> ()
    | Some (cls, src) ->
      let dst = fst (Cview.best_response_for v ~cls ~src) in
      step cls src dst;
      touched.(src) <- true;
      touched.(dst) <- true;
      dirty.(cls) <- true;
      epochs ()
  in
  epochs ();
  let rec converge () =
    match reference_first_defector v with
    | None -> ()
    | Some (cls, src, dst) ->
      step cls src dst;
      converge ()
  in
  let fallback = Option.is_some (reference_first_defector v) in
  converge ();
  {
    moves = !moves;
    users_moved = !users_moved;
    seeded_classes;
    seeded_links;
    frontier_links = count touched;
    fallback;
    nash = true;
  }

(* From an uncertified, non-equilibrium entry the restricted scan runs
   on a state it cannot prove, so it may stop early and leave the rest
   to the fallback: the order of both phases' moves shows in the outcome
   and the profile, which must be the reference's. *)
let test_repair_matches_reference () =
  let rng = Prng.Rng.create 2626 in
  let scanned = ref 0 and fell_back = ref 0 and trials = 800 in
  for trial = 1 to trials do
    let g = random_cgame rng in
    let k = Cgame.classes g and m = Cgame.links g in
    let x =
      Array.init k (fun c ->
          let row = Array.make m 0 in
          for _ = 1 to Cgame.count g c do
            let l = Prng.Rng.int rng m in
            row.(l) <- row.(l) + 1
          done;
          row)
    in
    let v = Cview.of_profile g x and twin = Cview.of_profile g x in
    let batch =
      List.init (Prng.Rng.int rng 4) (fun _ ->
          let mu = random_mutation rng twin in
          Mutation.apply twin mu;
          mu)
    in
    while Cview.depth twin > 0 do
      Cview.undo twin
    done;
    let run f = match f () with o -> Ok o | exception Invalid_argument _ -> Error () in
    let got = run (fun () -> Repair.repair_batch ~max_steps:10_000 v batch)
    and want = run (fun () -> reference_repair ~max_steps:10_000 twin batch) in
    (match (got, want) with
     | Ok r, Ok r' ->
       if r <> r' then Alcotest.failf "trial %d: the outcome differs from the reference" trial;
       if r.fallback then incr fell_back;
       if r.moves > 0 then incr scanned
     | Error (), Error () -> ()
     | _ -> Alcotest.failf "trial %d: only one side ran out of budget" trial);
    if Result.is_ok got && Cview.profile v <> Cview.profile twin then
      Alcotest.failf "trial %d: the profile differs from the reference" trial
  done;
  if 8 * !fell_back < trials || 2 * !scanned < trials then
    Alcotest.failf "only %d fallbacks and %d repairs with moves in %d trials" !fell_back !scanned
      trials

(* A mutation rejected mid-batch undoes the mutations applied before
   it, including a reweight that spilled the packed lane, and stops at
   the history left by the previous batch. *)
let test_repair_mid_batch_rejection () =
  let g =
    Cgame.kp
      ~counts:[| 6; 4 |]
      ~weights:[| Rational.one; Rational.of_int 2 |]
      ~capacities:[| Rational.of_int 2; Rational.one |]
  in
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  Alcotest.(check bool) "seed converged" true o.Algo.Cbr.converged;
  let v = Cview.of_profile g o.Algo.Cbr.profile in
  ignore (Repair.repair_batch v [ Mutation.Arrive { cls = 1; link = 0; count = 1 } ]);
  Alcotest.(check bool) "earlier batch left history" true (Cview.depth v > 0);
  let over = Cview.assigned v 0 1 + 1 in
  let msg = "Cview.revise_count: departures exceed the users of the class on the link" in
  check_rolled_back v msg (fun () ->
      Repair.repair_batch v
        [
          Mutation.Arrive { cls = 0; link = 0; count = 2 };
          Mutation.Depart { cls = 0; link = 1; count = over };
        ]);
  Alcotest.(check bool) "integer game is packed" true (Cview.packed v);
  check_rolled_back v msg (fun () ->
      Repair.repair_batch v
        [
          Mutation.Arrive { cls = 0; link = 0; count = 2 };
          Mutation.Reweight { cls = 1; weight = q 1 3 };
          Mutation.Depart { cls = 0; link = 1; count = over };
        ])

(* Mutation.apply guards on the mutation path. *)
let test_mutation_apply_guards () =
  let g =
    Cgame.kp ~counts:[| 3 |] ~weights:[| Rational.one |]
      ~capacities:[| Rational.one; Rational.one |]
  in
  let v = Cview.of_profile g [| [| 3; 0 |] |] in
  raises_invalid "Mutation.apply: arrive count must be positive" (fun () ->
      Mutation.apply v (Mutation.Arrive { cls = 0; link = 0; count = 0 }));
  raises_invalid "Mutation.apply: depart count must be positive" (fun () ->
      Mutation.apply v (Mutation.Depart { cls = 0; link = 0; count = 0 }));
  raises_invalid "Cview.revise_count: departures exceed the users of the class on the link"
    (fun () -> Mutation.apply v (Mutation.Depart { cls = 0; link = 1; count = 1 }))

(* ------------------------------------------------------------------ *)
(* Incremental SC1                                                     *)

(* After every step of random streams — block moves, undos, single
   mutations and repaired batches, some of which run out of budget and
   roll back — the live SC1 is the from-scratch fold; undoing back to
   the stream's base depth restores it.  The streams cover both load
   lanes and Participation rows, whose bias term moves with every
   reweight. *)
let test_sc1_streams () =
  let rng = Prng.Rng.create 1729 in
  let packed = ref 0 and exact = ref 0 and biased = ref 0 in
  for trial = 1 to 1_500 do
    let g = random_cgame rng in
    let v = Cview.of_profile g (Algo.Cbr.proportional_start g) in
    for _ = 1 to Prng.Rng.int rng 3 do
      random_move rng v
    done;
    let base = Cview.depth v and sc0 = Cview.social_cost1 v in
    let check step =
      let live = Cview.social_cost1 v and fold = reference_sc1 v in
      if not (Rational.equal live fold) then
        Alcotest.failf "trial %d step %d: live SC1 %s differs from the fold %s" trial step
          (Rational.to_string live) (Rational.to_string fold)
    in
    for step = 1 to 12 do
      (match Prng.Rng.int rng 4 with
       | 0 -> random_move rng v
       | 1 -> if Cview.depth v > base then Cview.undo v
       | 2 -> Mutation.apply v (random_mutation rng v)
       | _ -> (
         let batch = List.init (Prng.Rng.int rng 3) (fun _ -> random_mutation rng v) in
         match Repair.repair_batch ~max_steps:50 v batch with
         | _ -> ()
         | exception Invalid_argument _ -> ()));
      if Cview.packed v then incr packed else incr exact;
      check step
    done;
    if Uncertainty.kind (Cgame.uncertainty g 0) = Uncertainty.Participation then incr biased;
    while Cview.depth v > base do
      Cview.undo v
    done;
    Alcotest.check check_q (Printf.sprintf "trial %d: undo to the base restores SC1" trial) sc0
      (Cview.social_cost1 v)
  done;
  if !packed = 0 || !exact = 0 || !biased = 0 then
    Alcotest.failf "streams missed a case: %d packed steps, %d exact, %d Participation trials"
      !packed !exact !biased

(* 1,000 capacity revisions, each bringing a prime no earlier
   revision used, interleaved with block moves: SC1 stays the exact
   fold, and the aggregates' common multiple keeps fewer than twice the
   bits of any lcm the live numerators can reach, where never dropping
   it would grow it past 10,000 bits.  Undoing everything walks the
   primes back and restores SC1.  One game runs on the packed lane, the
   other (Participation rows) on the exact lane. *)
let test_sc1_fresh_primes () =
  let primes =
    let rec sieve acc count n =
      if count = 1_000 then List.rev acc
      else if List.exists (fun p -> n mod p = 0) acc then sieve acc count (n + 1)
      else sieve (n :: acc) (count + 1) (n + 1)
    in
    sieve [] 0 2
  in
  let run name g x =
    let v = Cview.of_profile g x in
    let packed = Cview.packed v and sc0 = Cview.social_cost1 v in
    let k = Cview.classes v and m = Cview.links v in
    (* every live numerator is at most 7,919 < 2^13, so no lcm of the
       k·m of them exceeds 13·k·m bits *)
    let bound = 2 * 13 * k * m in
    let check what =
      let live = Cview.social_cost1 v and fold = reference_sc1 v in
      if not (Rational.equal live fold) then
        Alcotest.failf "%s %s: live SC1 %s differs from the fold %s" name what
          (Rational.to_string live) (Rational.to_string fold);
      match Cview.sc1_multiple v with
      | None -> Alcotest.failf "%s %s: no aggregates after a query" name what
      | Some d ->
        if Bigint.num_bits d > bound then
          Alcotest.failf "%s %s: the common multiple has %d bits, over %d" name what
            (Bigint.num_bits d) bound
    in
    List.iteri
      (fun i p ->
        Cview.revise_capacity v ~cls:(i mod k) ~link:(i / k mod m) (q p (1 + (i mod 3)));
        if i mod 3 = 0 then begin
          let cls = i / 3 mod k in
          let src = ref (i mod m) in
          while Cview.assigned v cls !src = 0 do
            src := (!src + 1) mod m
          done;
          Cview.move v ~cls ~src:!src ~dst:((!src + 1) mod m) ~count:1
        end;
        check (Printf.sprintf "revision %d" i))
      primes;
    Alcotest.(check bool) (name ^ ": the lane held") packed (Cview.packed v);
    while Cview.depth v > 0 do
      Cview.undo v;
      if Cview.depth v mod 50 = 0 then check (Printf.sprintf "undo to depth %d" (Cview.depth v))
    done;
    Alcotest.check check_q (name ^ ": undo-all restores SC1") sc0 (Cview.social_cost1 v)
  in
  let row a b c = [| q a 1; q b 2; q c 3 |] in
  let x = [| [| 2; 1; 1 |]; [| 1; 2; 1 |] |] in
  run "packed"
    (Cgame.of_capacities ~counts:[| 4; 4 |] ~weights:[| q 1 1; q 3 2 |] [| row 2 3 5; row 7 1 4 |])
    x;
  let certain r = Belief.certain (State.make r) in
  run "exact"
    (Cgame.make_uncertain ~counts:[| 4; 4 |] ~weights:[| q 1 1; q 3 2 |]
       ~uncertainty:
         [| Uncertainty.participation ~presence:(q 1 3) (certain (row 2 3 5));
            Uncertainty.participation ~presence:(q 3 4) (certain (row 7 1 4)) |])
    x

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "shipped game files round-trip" `Quick test_wire_game_files;
          Alcotest.test_case "random class games round-trip" `Quick test_wire_cgame_roundtrip;
          Alcotest.test_case "mutation logs round-trip" `Quick test_wire_log_roundtrip;
          Alcotest.test_case "header and framing errors" `Quick test_wire_errors;
          Alcotest.test_case "integer and payload errors" `Quick test_wire_bigint_errors;
          Alcotest.test_case "Game_io rejects wire payloads" `Quick test_game_io_rejects_wire;
          Alcotest.test_case "golden digests of every writer" `Quick test_golden_digests;
          Alcotest.test_case "codec fuzz: decode or a prefixed error" `Quick test_codec_fuzz;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "parse error pins" `Quick test_mutation_parse_errors;
          Alcotest.test_case "apply guards" `Quick test_mutation_apply_guards;
        ] );
      ( "differential",
        [
          Alcotest.test_case "10k mutation sequences vs re-materialisation" `Slow
            test_differential_mutations;
          Alcotest.test_case "packed spill and restore" `Quick test_packed_spill_and_restore;
          Alcotest.test_case "exact-lane scale invariant under the sanitizer" `Quick
            test_scale_invariant_sanitized;
        ] );
      ( "repair",
        [
          Alcotest.test_case "repair vs full re-solve" `Slow test_repair_differential;
          Alcotest.test_case "argument errors" `Quick test_repair_argument_errors;
          Alcotest.test_case "clear_history keeps the state" `Quick test_clear_history;
          Alcotest.test_case "budget exhaustion raises" `Quick test_repair_budget_exhaustion;
          Alcotest.test_case "fallback matches Cbr.converge" `Quick test_repair_fallback;
          Alcotest.test_case "uncertified entry matches the per-pair reference" `Quick
            test_repair_matches_reference;
          Alcotest.test_case "mid-batch rejection rolls back" `Quick
            test_repair_mid_batch_rejection;
          Alcotest.test_case "multi-batch certified vs exact path" `Slow test_repair_multi_batch;
          Alcotest.test_case "certified implies Nash" `Slow test_certificate_property;
          Alcotest.test_case "certify under the sanitizer" `Quick test_certify_sanitized;
        ] );
      ( "sc1",
        [
          Alcotest.test_case "live SC1 is the fold along random streams" `Slow test_sc1_streams;
          Alcotest.test_case "fresh-prime capacity revisions" `Quick test_sc1_fresh_primes;
        ] );
    ]
