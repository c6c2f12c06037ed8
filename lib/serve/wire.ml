open Numeric

type kind = Game | Cgame | Log

let magic = "SRWF"
let version = 1

(* Bytes 3 and 4 stay unassigned: payloads that earlier versions tagged
   with them are rejected as an unknown kind, never misread. *)
let kind_byte = function Game -> 1 | Cgame -> 2 | Log -> 5

let kind_name = function
  | Game -> "game"
  | Cgame -> "class game"
  | Log -> "mutation log"

let fail_at pos msg = invalid_arg (Printf.sprintf "Wire: offset %d: %s" pos msg)

let kind_of_byte pos = function
  | 1 -> Game
  | 2 -> Cgame
  | 5 -> Log
  | b -> fail_at pos (Printf.sprintf "unknown payload kind %d" b)

(* ------------------------------------------------------------------ *)
(* Encoding primitives                                                 *)

let add_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let add_u16 buf n =
  add_u8 buf n;
  add_u8 buf (n lsr 8)

let add_u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Wire: value %d out of u32 range" n);
  add_u8 buf n;
  add_u8 buf (n lsr 8);
  add_u8 buf (n lsr 16);
  add_u8 buf (n lsr 24)

(* Sign byte (0 non-negative, 1 negative), u32 byte count, minimal
   little-endian magnitude.  Zero is sign 0, length 0. *)
let add_bigint buf n =
  add_u8 buf (if Bigint.sign n < 0 then 1 else 0);
  let mag = Buffer.create 8 in
  (match Bigint.to_int_opt n with
   | Some v ->
     let v = ref (abs v) in
     while !v > 0 do
       Buffer.add_char mag (Char.chr (!v land 0xff));
       v := !v lsr 8
     done
   | None ->
     let b256 = Bigint.of_int 256 in
     let v = ref (Bigint.abs n) in
     while not (Bigint.is_zero !v) do
       let q, r = Bigint.divmod !v b256 in
       Buffer.add_char mag (Char.chr (Bigint.to_int_exn r));
       v := q
     done);
  add_u32 buf (Buffer.length mag);
  Buffer.add_buffer buf mag

let add_rational buf q =
  add_bigint buf (Rational.num q);
  add_bigint buf (Rational.den q)

let header buf k =
  Buffer.add_string buf magic;
  add_u16 buf version;
  add_u8 buf (kind_byte k)

(* ------------------------------------------------------------------ *)
(* Decoding primitives                                                 *)

type dec = { data : string; mutable pos : int }

let need d n =
  if d.pos + n > String.length d.data then
    fail_at d.pos
      (Printf.sprintf "truncated input (need %d more bytes, %d available)" n
         (String.length d.data - d.pos))

let u8 d =
  need d 1;
  let b = Char.code d.data.[d.pos] in
  d.pos <- d.pos + 1;
  b

let u16 d =
  need d 2;
  let b0 = Char.code d.data.[d.pos] and b1 = Char.code d.data.[d.pos + 1] in
  d.pos <- d.pos + 2;
  b0 lor (b1 lsl 8)

let u32 d =
  need d 4;
  let b i = Char.code d.data.[d.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  d.pos <- d.pos + 4;
  v

(* Element counts are read before their elements; any count larger
   than the remaining payload is corrupt, and rejecting it here keeps
   allocation proportional to the input size. *)
let checked_count d what n =
  if n > String.length d.data - d.pos then
    fail_at d.pos (Printf.sprintf "%s count %d exceeds remaining payload" what n);
  n

let dec_bigint d =
  let spos = d.pos in
  let sign = u8 d in
  if sign > 1 then fail_at spos (Printf.sprintf "bad sign byte %d" sign);
  let len = checked_count d "magnitude byte" (u32 d) in
  need d len;
  if len > 0 && d.data.[d.pos + len - 1] = '\000' then
    fail_at (d.pos + len - 1) "non-minimal integer encoding";
  let mag =
    if len = 0 then Bigint.zero
    else if len <= 7 then begin
      let n = ref 0 in
      for i = len - 1 downto 0 do
        n := (!n lsl 8) lor Char.code d.data.[d.pos + i]
      done;
      Bigint.of_int !n
    end
    else begin
      let b256 = Bigint.of_int 256 in
      let acc = ref Bigint.zero in
      for i = len - 1 downto 0 do
        acc := Bigint.add (Bigint.mul !acc b256) (Bigint.of_int (Char.code d.data.[d.pos + i]))
      done;
      !acc
    end
  in
  d.pos <- d.pos + len;
  if sign = 1 && Bigint.is_zero mag then fail_at spos "negative zero";
  if sign = 1 then Bigint.neg mag else mag

(* Canonical means lowest terms with zero as 0/1: exactly what the
   encoder writes, so re-encoding a decoded payload is the identity. *)
let dec_rational d =
  let qpos = d.pos in
  let num = dec_bigint d in
  let dpos = d.pos in
  let den = dec_bigint d in
  if Bigint.sign den <= 0 then fail_at dpos "denominator must be positive";
  let q = Rational.make num den in
  if not (Bigint.equal (Rational.den q) den) then fail_at qpos "non-canonical rational";
  q

(* [f] is applied at indices 0 .. n-1 in order (decoders carry state in
   [d.pos], so the unspecified evaluation order of [Array.init] would
   scramble the stream). *)
let read_array n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let open_dec ?expect s =
  if String.length s < 4 then fail_at 0 "truncated input (expected 4-byte magic)";
  if String.sub s 0 4 <> magic then fail_at 0 "bad magic (not a selfish_routing wire payload)";
  let d = { data = s; pos = 4 } in
  let v = u16 d in
  if v <> version then
    fail_at 4 (Printf.sprintf "unsupported wire version %d (expected %d)" v version);
  let kpos = d.pos in
  let k = kind_of_byte kpos (u8 d) in
  (match expect with
   | Some e when e <> k ->
     fail_at kpos
       (Printf.sprintf "expected %s payload (kind %d), found %s (kind %d)" (kind_name e)
          (kind_byte e) (kind_name k) (kind_byte k))
   | _ -> ());
  (d, k)

let finish d value =
  if d.pos <> String.length d.data then fail_at d.pos "trailing bytes after payload";
  value

let is_wire s = String.length s >= 4 && String.sub s 0 4 = magic

let peek_kind s =
  let _, k = open_dec s in
  k

(* ------------------------------------------------------------------ *)
(* Games                                                               *)

(* Both game kinds are Game_io's reduced-form table: backend byte, entry
   and link counts, class counts (class games only), weights, presence
   (participation only), then one row per entry — m capacities, or m
   'lo hi' pairs under strict. *)

let backend_byte = function
  | Model.Uncertainty.Bayesian -> 0
  | Model.Uncertainty.Participation -> 1
  | Model.Uncertainty.Strict -> 2

let encode_table k (t : Model.Game_io.table) =
  let buf = Buffer.create 256 in
  header buf k;
  add_u8 buf (backend_byte (Model.Game_io.table_kind t));
  add_u32 buf (Array.length t.weights);
  add_u32 buf (Model.Game_io.table_links t);
  Option.iter (Array.iter (add_u32 buf)) t.counts;
  Array.iter (add_rational buf) t.weights;
  Option.iter (Array.iter (add_rational buf)) t.presence;
  Array.iter (Array.iter (add_rational buf)) (Model.Game_io.table_rows t);
  Buffer.contents buf

let decode_table k s build =
  let d, _ = open_dec ~expect:k s in
  let bpos = d.pos in
  let backend = u8 d in
  if backend > 2 then fail_at bpos (Printf.sprintf "unknown backend byte %d" backend);
  let n = checked_count d (if k = Cgame then "class" else "user") (u32 d) in
  let m = checked_count d "link" (u32 d) in
  let counts = if k = Cgame then Some (read_array n (fun _ -> u32 d)) else None in
  let weights = read_array n (fun _ -> dec_rational d) in
  let presence = if backend = 1 then Some (read_array n (fun _ -> dec_rational d)) else None in
  let width = if backend = 2 then 2 * m else m in
  let rows = read_array n (fun _ -> read_array width (fun _ -> dec_rational d)) in
  let rows = if backend = 2 then Model.Game_io.Intervals rows else Model.Game_io.Capacities rows in
  finish d (build ~prefix:(fun _ -> "Wire: ") { Model.Game_io.counts; weights; presence; rows })

let encode_game g = encode_table Game (Model.Game_io.table_of_game ~what:"Wire.encode_game" g)
let decode_game s = decode_table Game s Model.Game_io.game_of_table
let encode_cgame g = encode_table Cgame (Model.Game_io.table_of_cgame ~what:"Wire.encode_cgame" g)
let decode_cgame s = decode_table Cgame s Model.Game_io.cgame_of_table

(* ------------------------------------------------------------------ *)
(* Mutation logs                                                       *)

let encode_log log =
  let buf = Buffer.create 128 in
  header buf Log;
  add_u32 buf (List.length log);
  List.iter
    (fun batch ->
      add_u32 buf (List.length batch);
      List.iter
        (fun mu ->
          match mu with
          | Mutation.Arrive { cls; link; count } ->
            add_u8 buf 0;
            add_u32 buf cls;
            add_u32 buf link;
            add_u32 buf count
          | Mutation.Depart { cls; link; count } ->
            add_u8 buf 1;
            add_u32 buf cls;
            add_u32 buf link;
            add_u32 buf count
          | Mutation.Reweight { cls; weight } ->
            add_u8 buf 2;
            add_u32 buf cls;
            add_rational buf weight
          | Mutation.Revise_capacity { cls; link; cap } ->
            add_u8 buf 3;
            add_u32 buf cls;
            add_u32 buf link;
            add_rational buf cap)
        batch)
    log;
  Buffer.contents buf

let decode_log s =
  let d, _ = open_dec ~expect:Log s in
  let npos = d.pos in
  let nbatches = checked_count d "batch" (u32 d) in
  if nbatches = 0 then fail_at npos "mutation log needs at least one batch";
  let batches =
    read_array nbatches (fun _ ->
        let nmut = checked_count d "mutation" (u32 d) in
        read_array nmut (fun _ ->
            let opos = d.pos in
            match u8 d with
            | 0 ->
              let cls = u32 d in
              let link = u32 d in
              let count = u32 d in
              if count = 0 then fail_at opos "arrive count must be positive";
              Mutation.Arrive { cls; link; count }
            | 1 ->
              let cls = u32 d in
              let link = u32 d in
              let count = u32 d in
              if count = 0 then fail_at opos "depart count must be positive";
              Mutation.Depart { cls; link; count }
            | 2 ->
              let cls = u32 d in
              let weight = dec_rational d in
              if Rational.sign weight <= 0 then fail_at opos "weight must be positive";
              Mutation.Reweight { cls; weight }
            | 3 ->
              let cls = u32 d in
              let link = u32 d in
              let cap = dec_rational d in
              if Rational.sign cap <= 0 then fail_at opos "capacity must be positive";
              Mutation.Revise_capacity { cls; link; cap }
            | op -> fail_at opos (Printf.sprintf "unknown mutation opcode %d" op)))
  in
  finish d (Array.to_list (Array.map Array.to_list batches))
