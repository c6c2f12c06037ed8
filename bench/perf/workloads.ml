(* The five workloads.  Each is a closed loop with one client: the runner
   calls [prepare] (untimed input generation), then the timed [op], then
   the untimed [check] of that op's output.  In a traced run it also
   calls [probe] every [probe_every] ops; probes time the layers' public
   functions on the workload's live state and leave that state as they
   found it (read-only, or balanced by [Cview.undo]). *)

open Numeric
open Model

type ctx = { seed : int; cli : string; out : string }

type instance = {
  prepare : int -> unit;
  op : int -> unit;
  check : int -> bool;
  probe : unit -> unit;
  finish : unit -> bool;  (** an untimed last check, after the timed loop *)
  input_key : int -> string;  (** folded into the stream digest during warm-up *)
  output_key : int -> string;  (** folded into the result digest during warm-up *)
}

type t = {
  name : string;
  why : string;
  warmup : int;
  probe_every : int;  (** even, so probes land on traced (odd) ops *)
  setup : ctx -> instance;
}

let no_finish () = true

(* ------------------------------------------------------------------ *)
(* Probes shared by the workloads                                       *)

(* [numeric.*] on operands drawn from the live state: each operand is
   paired with a fixed stride partner, so every run pairs the same
   values for the same state. *)
let numeric_probe operands =
  let n = Array.length operands in
  if n >= 3 then begin
    let a i = operands.(i) and b i = operands.(((i * 7) + 3) mod n) and c i = operands.(((i * 13) + 5) mod n) in
    Trace.span ~calls:n "numeric.compare" (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Rational.compare (a i) (b i)))
        done);
    Trace.span ~calls:n "numeric.compare_sum" (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Rational.compare_sum (a i) (b i) (c i)))
        done);
    Trace.span ~calls:n "numeric.add" (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Rational.add (a i) (b i)))
        done);
    Trace.span ~calls:n "numeric.mul" (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Rational.mul (a i) (b i)))
        done);
    let native = ref 0 in
    let bits =
      Array.map
        (fun q ->
          let num = Rational.num q and den = Rational.den q in
          if Bigint.is_native num && Bigint.is_native den then incr native;
          Bigint.num_bits num + Bigint.num_bits den)
        operands
    in
    Array.sort Int.compare bits;
    Trace.count "numeric.native_operand_share" (float_of_int !native /. float_of_int n);
    Trace.count "numeric.operand_bits_p50" (float_of_int bits.(n / 2))
  end

(* Loads, capacities and latencies of the occupied (class, link) pairs. *)
let view_operands v =
  let acc = ref [] in
  for l = 0 to Cview.links v - 1 do
    acc := Cview.load v l :: !acc
  done;
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      if Cview.assigned v c l > 0 then acc := Cview.latency v c l :: Cview.capacity v c l :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

let occupied v =
  let acc = ref [] in
  for c = Cview.classes v - 1 downto 0 do
    for l = Cview.links v - 1 downto 0 do
      if Cview.assigned v c l > 0 then acc := (c, l) :: !acc
    done
  done;
  Array.of_list !acc

(* [cview.*] and [mutation.apply_undo] on a live view; every move and
   arrival is undone at once. *)
let cview_probe v =
  let m = Cview.links v in
  let pairs = occupied v in
  let np = Array.length pairs in
  Trace.count "cview.packed" (if Cview.packed v then 1.0 else 0.0);
  Trace.span ~calls:(np * (m - 1)) "cview.improves" (fun () ->
      Array.iter
        (fun (cls, src) ->
          for dst = 0 to m - 1 do
            if dst <> src then ignore (Sys.opaque_identity (Cview.improves v ~cls ~src dst))
          done)
        pairs);
  Trace.span ~calls:np "cview.is_defector" (fun () ->
      Array.iter (fun (cls, src) -> ignore (Sys.opaque_identity (Cview.is_defector v ~cls ~src))) pairs);
  Trace.span ~calls:np "cview.move_undo" (fun () ->
      Array.iter
        (fun (cls, src) ->
          Cview.move v ~cls ~src ~dst:((src + 1) mod m) ~count:1;
          Cview.undo v)
        pairs);
  Trace.span ~calls:np "mutation.apply_undo" (fun () ->
      Array.iter
        (fun (cls, link) ->
          Serve.Mutation.apply v (Serve.Mutation.Arrive { cls; link; count = 1 });
          Cview.undo v)
        pairs);
  ignore (Trace.span "cview.is_nash" (fun () -> Cview.is_nash v));
  ignore (Trace.span "cview.first_defector" (fun () -> Cview.first_defector v));
  ignore (Trace.span "cview.social_cost1" (fun () -> Cview.social_cost1 v))

(* The cold solve: build, start, converge, position, verify.  The
   [solve_cold] op, and the re-solve probe of the other workloads. *)
let solve_stages ~counts ~weights caps =
  let g = Trace.span "cgame.of_capacities" (fun () -> Cgame.of_capacities ~counts ~weights caps) in
  let x = Trace.span "cbr.proportional_start" (fun () -> Algo.Cbr.proportional_start g) in
  let o = Trace.span "cbr.converge" (fun () -> Algo.Cbr.converge g x) in
  let v = Trace.span "cview.of_profile" (fun () -> Cview.of_profile g o.Algo.Cbr.profile) in
  let nash = Trace.span "cview.is_nash" (fun () -> Cview.is_nash v) in
  Trace.count "cbr.steps" (float_of_int o.Algo.Cbr.steps);
  Trace.count "cbr.users_moved" (float_of_int o.Algo.Cbr.users_moved);
  (g, v, o, o.Algo.Cbr.converged && nash)

let resolve_probe g =
  let k = Cgame.classes g in
  let counts = Array.init k (Cgame.count g) and weights = Array.init k (Cgame.weight g) in
  let _, v, _, _ = solve_stages ~counts ~weights (Array.init k (Cgame.capacity_row g)) in
  v

let wire_game_probe g =
  let data = Serve.Wire.encode_cgame g in
  ignore (Trace.span "wire.decode_cgame" (fun () -> Serve.Wire.decode_cgame data))

let wire_log_probe log =
  let data = Trace.span "wire.encode_log" (fun () -> Serve.Wire.encode_log log) in
  ignore (Trace.span "wire.decode_log" (fun () -> Serve.Wire.decode_log data));
  Trace.count "wire.log_bytes" (float_of_int (String.length data))

let profile_key v =
  let b = Buffer.create 1024 in
  for c = 0 to Cview.classes v - 1 do
    for l = 0 to Cview.links v - 1 do
      Buffer.add_string b (string_of_int (Cview.assigned v c l));
      Buffer.add_char b ','
    done
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* serve_packed, serve_spill                                            *)

(* The bench-serve/1 instance: k = 96 classes of 1050 users on m = 8
   links, weights with denominator 4, capacity rows that are rational
   multiples of one base vector (a weighted potential, so Cbr and the
   repair fallback always converge). *)
let k = 96
let m = 8
let base = Array.init m (fun l -> Rational.of_int (m + 1 - l))
let row_scale c = Rational.of_ints ((c mod 5) + 2) 2

let serve_game () =
  Cgame.of_capacities ~counts:(Array.make k 1050)
    ~weights:(Array.init k (fun c -> Rational.of_ints ((4 * ((c mod 16) + 1)) + 1) 4))
    (Array.init k (fun c -> Array.map (Rational.mul (row_scale c)) base))

let solve g =
  let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
  if not o.Algo.Cbr.converged then failwith "initial solve did not converge";
  Cview.of_profile g o.Algo.Cbr.profile

let users v =
  let t = ref 0 in
  for c = 0 to Cview.classes v - 1 do
    t := !t + Cview.class_count v c
  done;
  !t

(* One batch of the bench-serve/1 stream, generated against the live
   view so departures name occupied links and never empty a class; at
   the 100,100-user floor the batch is an arrival.  [den] draws the
   reweight denominator: 4 divides the packing scale and keeps the
   packed lane, 3..7 does not. *)
let gen_batch ~den rng v =
  let open Serve.Mutation in
  let kind = if users v <= 100_100 then 0 else Prng.Rng.int rng 4 in
  match kind with
  | 0 ->
    let cls = Prng.Rng.int rng k and link = Prng.Rng.int rng m in
    [ Arrive { cls; link; count = 1 + Prng.Rng.int rng 8 } ]
  | 1 ->
    let cls = Prng.Rng.int rng k in
    let off = Prng.Rng.int rng m in
    let link = ref (-1) in
    for i = 0 to m - 1 do
      let l = (off + i) mod m in
      if !link < 0 && Cview.assigned v cls l > 0 then link := l
    done;
    let l = !link in
    let avail = min 8 (min (Cview.assigned v cls l) (Cview.class_count v cls - 1)) in
    if avail <= 0 then [ Arrive { cls; link = l; count = 1 } ]
    else [ Depart { cls; link = l; count = 1 + Prng.Rng.int rng avail } ]
  | 2 ->
    let cls = Prng.Rng.int rng k in
    let d = den rng in
    let b = (cls mod 16) + 1 in
    [ Reweight { cls; weight = Rational.of_ints ((d * b) + 1 + Prng.Rng.int rng (d - 1)) d } ]
  | _ ->
    let cls = Prng.Rng.int rng k in
    let scale = Rational.mul (row_scale cls) (Rational.of_ints (6 + Prng.Rng.int rng 5) 8) in
    List.init m (fun link -> Revise_capacity { cls; link; cap = Rational.mul scale base.(link) })

let no_outcome =
  Serve.Repair.
    {
      moves = 0;
      users_moved = 0;
      seeded_classes = 0;
      seeded_links = 0;
      frontier_links = 0;
      fallback = false;
      nash = false;
    }

let count_outcome batch (r : Serve.Repair.outcome) =
  Trace.count "mutation.per_batch" (float_of_int (List.length batch));
  Trace.count "repair.moves" (float_of_int r.moves);
  Trace.count "repair.users_moved" (float_of_int r.users_moved);
  Trace.count "repair.seeded_links" (float_of_int r.seeded_links);
  Trace.count "repair.frontier_links" (float_of_int r.frontier_links);
  Trace.count "repair.saturated" (if r.frontier_links >= m then 1.0 else 0.0);
  Trace.count "repair.fallback" (if r.fallback then 1.0 else 0.0)

(* The stream restarts from the solved instance every [epoch] batches,
   with the epoch's own generator: a run then averages many independent
   streams instead of following one random walk of the population into
   whichever costly stretch the seed leads to, and the view's undo
   history stays bounded. *)
let serve ~spill ~epoch ctx =
  let g = serve_game () in
  let start = Cview.profile (solve g) in
  let v = ref (Cview.of_profile g start) and rng = ref (Prng.Rng.create 0) in
  let den = if spill then fun rng -> 3 + Prng.Rng.int rng 5 else fun _ -> 4 in
  let batch = ref [] and last = ref no_outcome in
  let window = ref [] in
  let was_packed = ref true in
  let prepare i =
    if i mod epoch = 0 then begin
      v := Cview.of_profile g start;
      rng := Prng.Rng.of_path ctx.seed [ i / epoch ];
      was_packed := Cview.packed !v
    end;
    (* serve_spill opens each epoch with a reweight by 4/3, which the
       packing scale 4 cannot hold: the view spills at once, for good *)
    batch :=
      if spill && i mod epoch = 0 then
        [ Serve.Mutation.Reweight { cls = 0; weight = Rational.of_ints 4 3 } ]
      else gen_batch ~den !rng !v;
    if !Trace.armed then window := !batch :: !window
  in
  let op _ = last := Trace.span "repair.repair_batch" (fun () -> Serve.Repair.repair_batch !v !batch) in
  let check i =
    let v = !v in
    count_outcome !batch !last;
    let packed = Cview.packed v in
    if !was_packed && not packed then Trace.count "cview.spill" 1.0;
    was_packed := packed;
    let lane_ok = if spill then not packed else packed in
    (* every 1,000th batch, re-derive the game from the live state and
       verify the profile anew *)
    let rebuilt_ok =
      i mod 1000 <> 999 || Cview.is_nash (Cview.of_profile (Cview.to_cgame v) (Cview.profile v))
    in
    !last.nash && lane_ok && rebuilt_ok
  in
  let probe () =
    let v = !v in
    numeric_probe (view_operands v);
    cview_probe v;
    let g = Cview.to_cgame v in
    wire_game_probe g;
    wire_log_probe (List.rev !window);
    window := [];
    ignore (resolve_probe g)
  in
  {
    prepare;
    op;
    check;
    probe;
    finish = no_finish;
    input_key = (fun _ -> Serve.Mutation.render [ !batch ]);
    output_key =
      (fun _ ->
        let r = !last in
        Printf.sprintf "%d %d %d %b|%s" r.moves r.users_moved r.frontier_links r.fallback
          (profile_key !v));
  }

(* ------------------------------------------------------------------ *)
(* serve_replay                                                         *)

let batches_per_log = 100
let logs = 32

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Runs [prog args] with stdout and stderr sent to files and waits for
   it to end; returns the exit status. *)
let spawn prog args ~stdout ~stderr =
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let out = fd stdout and err = fd stderr in
  Fun.protect
    ~finally:(fun () ->
      Unix.close out;
      Unix.close err)
    (fun () ->
      let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out err in
      let rec wait () =
        match Unix.waitpid [] pid with
        | _, status -> status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec at j = j + k <= n && (String.sub s j k = sub || at (j + 1)) in
  at 0

let json_lines out = List.filter (String.starts_with ~prefix:"{\"batch\"") (String.split_on_char '\n' out)

(* What [selfish_routing serve GAME LOG] does once it has read its two
   files (run_serve in bin/selfish_routing.ml): decode both, solve, then
   per batch one repair and one JSON line with the exact social cost.
   Returns the final view and the JSON lines. *)
let replay game_data log_data =
  let g = Trace.span "wire.decode_cgame" (fun () -> Serve.Wire.decode_cgame game_data) in
  let log = Trace.span "wire.decode_log" (fun () -> Serve.Wire.decode_log log_data) in
  let v = solve g in
  let b = Buffer.create 32768 in
  List.iteri
    (fun idx batch ->
      let r = Trace.span "repair.repair_batch" (fun () -> Serve.Repair.repair_batch v batch) in
      count_outcome batch r;
      let sc1 = Trace.span "cview.social_cost1" (fun () -> Cview.social_cost1 v) in
      Printf.bprintf b
        "{\"batch\":%d,\"mutations\":%d,\"moves\":%d,\"users_moved\":%d,\"seeded_classes\":%d,\
         \"seeded_links\":%d,\"frontier_links\":%d,\"fallback\":%b,\"nash\":%b,\"users\":%d,\"sc1\":\"%s\"}\n"
        (idx + 1) (List.length batch) r.moves r.users_moved r.seeded_classes r.seeded_links r.frontier_links
        r.fallback r.nash (users v) (Rational.to_string sc1))
    log;
  (v, Buffer.contents b)

(* The CLI's serve replay, run in this process so that the calibration
   kernel scales it like every other workload: a CLI child process may
   run on another core than the kernel, and its times spread by up to
   37% between runs.  The real CLI replays log 0 once per run, untimed,
   and must print the same JSON lines; the traced run times it. *)
let serve_replay ctx =
  let dir = Filename.concat ctx.out "serve_replay" in
  mkdir_p dir;
  let file name = Filename.concat dir name in
  let g = serve_game () in
  let game_data = Serve.Wire.encode_cgame g in
  (* Each log is generated against its own replay from the solved
     instance, whose final social cost the op must reproduce. *)
  let start = Cview.profile (solve g) in
  let expected = Array.make logs "" in
  let log_data =
    Array.init logs (fun j ->
        let v = Cview.of_profile g start in
        let rng = Prng.Rng.of_path ctx.seed [ j ] in
        let log =
          List.init batches_per_log (fun _ ->
              let b = gen_batch ~den:(fun _ -> 4) rng v in
              if not (Serve.Repair.repair_batch v b).nash then
                failwith "serve_replay: generating replay is not Nash";
              b)
        in
        expected.(j) <- Rational.to_string (Cview.social_cost1 v);
        let data = Trace.span "wire.encode_log" (fun () -> Serve.Wire.encode_log log) in
        Trace.count "wire.log_bytes" (float_of_int (String.length data));
        data)
  in
  write_file (file "game.srwf") game_data;
  write_file (file "log.srwf") log_data.(0);
  write_file (file "empty.srwf") (Serve.Wire.encode_log [ [] ]);
  let cli span log =
    let status =
      Trace.span span (fun () ->
          spawn ctx.cli
            [ "serve"; "--domains"; "1"; file "game.srwf"; file log ]
            ~stdout:(file "stdout") ~stderr:(file "stderr"))
    in
    if status <> Unix.WEXITED 0 then failwith ("serve_replay: selfish_routing serve " ^ log ^ " failed");
    read_file (file "stdout")
  in
  let last = ref None in
  let op i = last := Some (replay game_data log_data.(i mod logs)) in
  let output () = match !last with Some (_, out) -> out | None -> "" in
  let check i =
    let lines = json_lines (output ()) in
    let sc1 = Printf.sprintf "\"sc1\":\"%s\"}" expected.(i mod logs) in
    List.length lines = batches_per_log
    && List.for_all (contains ~sub:"\"nash\":true,") lines
    && String.ends_with ~suffix:sc1 (List.nth lines (batches_per_log - 1))
  in
  let probe () =
    ignore (cli "cli.startup" "empty.srwf");
    let out = cli "cli.serve" "log.srwf" in
    Trace.count "cli.batches" (float_of_int batches_per_log);
    Trace.count "cli.output_bytes_per_batch" (float_of_int (String.length out) /. float_of_int batches_per_log);
    Option.iter
      (fun (v, _) ->
        numeric_probe (view_operands v);
        cview_probe v)
      !last;
    ignore (resolve_probe g)
  in
  let finish () = json_lines (cli "cli.serve" "log.srwf") = json_lines (snd (replay game_data log_data.(0))) in
  {
    prepare = ignore;
    op;
    check;
    probe;
    finish;
    input_key = (fun i -> log_data.(i mod logs));
    output_key = (fun _ -> output ());
  }

(* ------------------------------------------------------------------ *)
(* solve_cold                                                           *)

(* A fresh class game per op, seeded by (seed, op): k = 96 classes of
   5k–21k users (n ≈ 1.25M) on m = 8 links, weights j/4, and rows
   s_c · base, a weighted potential that the packed lane holds. *)
let solve_cold ctx =
  let input = ref ([||], [||], [||]) in
  let result = ref None in
  let prepare i =
    let rng = Prng.Rng.of_path ctx.seed [ i ] in
    let base = Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 12)) in
    let counts = Array.init k (fun _ -> 5000 + Prng.Rng.int rng 16_001) in
    let weights = Array.init k (fun _ -> Rational.of_ints (4 + Prng.Rng.int rng 65) 4) in
    let caps =
      Array.init k (fun _ ->
          let s = Rational.of_ints (1 + Prng.Rng.int rng 6) 2 in
          Array.map (Rational.mul s) base)
    in
    input := (counts, weights, caps)
  in
  let op _ =
    let counts, weights, caps = !input in
    result := Some (solve_stages ~counts ~weights caps)
  in
  let check _ = match !result with Some (_, _, _, ok) -> ok | None -> false in
  let probe () =
    match !result with
    | Some (g, v, _, _) ->
      numeric_probe (view_operands v);
      cview_probe v;
      wire_game_probe g
    | None -> ()
  in
  {
    prepare;
    op;
    check;
    probe;
    finish = no_finish;
    input_key =
      (fun _ ->
        let counts, weights, caps = !input in
        String.concat ","
          (Array.to_list (Array.map string_of_int counts)
          @ Array.to_list (Array.map Rational.to_string weights)
          @ Array.to_list (Array.map (fun r -> Rational.to_string r.(0)) caps)));
    output_key =
      (fun _ ->
        match !result with
        | Some (_, v, o, ok) ->
          Printf.sprintf "%d %d %b|%s" o.Algo.Cbr.steps o.users_moved ok (profile_key v)
        | None -> "");
  }

(* ------------------------------------------------------------------ *)
(* mixed_emc                                                            *)

(* A pool of KP games: n = 12 users in three weight classes of four, on
   m = 3 links with capacities 1, 2, 3, each user uniform over the
   links.  Weights are distinct draws from 100..999, so few load
   vectors collide and every game has about the same state count. *)
let pool_size = 32
let kp_caps = [| Rational.of_int 1; Rational.of_int 2; Rational.of_int 3 |]

let max_congestion loads =
  let best = ref (Rational.div loads.(0) kp_caps.(0)) in
  for l = 1 to Array.length loads - 1 do
    best := Rational.max !best (Rational.div loads.(l) kp_caps.(l))
  done;
  !best

let mixed_emc ctx =
  let pool =
    Array.init pool_size (fun p ->
        let rng = Prng.Rng.of_path ctx.seed [ p ] in
        let rec draw acc =
          if List.length acc = 3 then acc
          else
            let w = 100 + Prng.Rng.int rng 900 in
            draw (if List.mem w acc then acc else w :: acc)
        in
        let ws = Array.of_list (draw []) in
        let g = Game.kp ~weights:(Array.init 12 (fun u -> Rational.of_int ws.(u / 4))) ~capacities:kp_caps in
        (g, Mixed.uniform g))
  in
  let values = Array.make pool_size None in
  let value = ref Rational.zero and current = ref 0 in
  let op i =
    let g, p = pool.(i mod pool_size) in
    current := i mod pool_size;
    value :=
      Trace.span "congestion.expected_max_congestion" (fun () -> Congestion.expected_max_congestion g p)
  in
  let check i =
    match values.(i mod pool_size) with
    | None ->
      values.(i mod pool_size) <- Some !value;
      true
    | Some x -> Rational.equal x !value
  in
  let probe () =
    let g, p = pool.(!current) in
    let d = Trace.span "load_dist.of_mixed" (fun () -> Load_dist.of_mixed g p) in
    let x = Trace.span "load_dist.expect" (fun () -> Load_dist.expect d max_congestion) in
    if not (Rational.equal x !value) then failwith "mixed_emc: Load_dist and Congestion disagree";
    Trace.count "load_dist.states" (float_of_int (Load_dist.size d));
    Trace.count "load_dist.classes" (float_of_int (Load_dist.classes d));
    let operands = ref [] and taken = ref 0 in
    Load_dist.iter d (fun loads prob ->
        if !taken < 256 then begin
          incr taken;
          operands := prob :: Array.to_list loads @ !operands
        end);
    numeric_probe (Array.of_list !operands);
    let cg, _ = Cgame.compress g in
    let v = resolve_probe cg in
    cview_probe v;
    wire_game_probe cg
  in
  {
    prepare = ignore;
    op;
    check;
    probe;
    finish = no_finish;
    input_key =
      (fun i ->
        let g, _ = pool.(i mod pool_size) in
        String.concat "," (Array.to_list (Array.map Rational.to_string (Game.weights g))));
    output_key = (fun _ -> Rational.to_string !value);
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "serve_packed";
      why = "one Repair.repair_batch on the ~1e5-user k=96 m=8 bench-serve stream in 2000-batch epochs: restricted scans and is_nash on the packed native-int lane";
      warmup = 1000;
      probe_every = 200;
      setup = serve ~spill:false ~epoch:2000;
    };
    {
      name = "serve_spill";
      why = "the same stream with reweight denominators 3..7 in 100-batch epochs: the same repair code on the exact rational lane, where numeric costs show";
      warmup = 50;
      probe_every = 20;
      setup = serve ~spill:true ~epoch:100;
    };
    {
      name = "serve_replay";
      why = "the selfish_routing serve replay of a 100-batch SRWF log, in process: wire decode, initial solve, repair, JSON lines with social_cost1; checked against the CLI";
      warmup = 4;
      probe_every = 4;
      setup = serve_replay;
    };
    {
      name = "solve_cold";
      why = "a cold solve of a fresh 1.25M-user k=96 m=8 class game: of_capacities, Cbr start and converge, is_nash; bypasses Repair";
      warmup = 200;
      probe_every = 50;
      setup = solve_cold;
    };
    {
      name = "mixed_emc";
      why = "exact expected max congestion of a uniform n=12 m=3 KP game: the Load_dist DP with Bigint multinomials; never touches Cview";
      warmup = 64;
      probe_every = 16;
      setup = mixed_emc;
    };
  ]
