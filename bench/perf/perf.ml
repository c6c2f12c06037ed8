(* perf.exe — the repository benchmark (see README.md).

     perf.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--ops N] [--record FILE] [--cli PATH] [--out DIR]
     perf.exe compare A.jsonl B.jsonl
     perf.exe smoke --benchmark BENCHMARK.json --cli PATH --fixtures DIR

   [run] sets a workload up [setup_reps] times (reporting the median as
   setup_s), then runs its op in a closed loop for [--seconds] (or
   exactly [--ops] ops) and prints one JSON result line last on stdout:
   the end-to-end metrics, or with [--trace 1] the per-layer ones. *)

let setup_reps = 5

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then s.a <- Array.append s.a (Array.make s.n 0.0);
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let sorted s =
    let a = Array.sub s.a 0 s.n in
    Array.sort Float.compare a;
    a
end

(* Linear interpolation between the closest ranks; 0 on no samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let h = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them
   (method "exclusive"); the spread of a metric is (q3 - q1) / median. *)
let spread xs =
  let d = sorted_of_list xs in
  let ld = Array.length d in
  if ld < 2 then 0.0
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    let med = q 2 in
    if med = 0.0 then 0.0 else (q 3 -. q 1) /. Float.abs med

(* FNV-1a over the warm-up's inputs and outputs, on 63-bit ints. *)
let fnv h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h

let fnv_init = 0x4bf29ce484222325

(* ------------------------------------------------------------------ *)
(* Host calibration                                                     *)

(* On a shared host, other tenants' use of the cores and caches slows
   the benchmark by up to half, in stretches of a few seconds that come
   and go within a run, and a 10 s run cannot average that away.  Two
   fixed kernels, timed every [calibrate_every_ns] inside the run, slow
   with it: young-heap allocation and pointer chasing (a 1000-key Map),
   and random reads of an 8 MB table that lives off the OCaml heap.
   The workloads slow by more than the first and less than the sum of
   both, so the kernel time is their geometric mean,
   sqrt (map * (map + reads)).  Each op's time, and each setup's, is
   scaled by the latest kernel time to a host on which it is
   [reference_us]; the median kernel times go to stderr and the run
   record.  The kernels touch no library code, and each warms its own
   data before its timed pass, so a change under test cannot speed them
   up or slow them down. *)

module Int_map = Map.Make (Int)

let reference_us = 250.0
let calibrate_every_ns = 50_000_000
let table = Bigarray.(Array1.init int c_layout (1 lsl 20) (fun i -> i))

let map_kernel () =
  let m = ref Int_map.empty and x = ref 12345 in
  for _ = 1 to 1000 do
    x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
    m := Int_map.add !x !x !m
  done;
  ignore (Sys.opaque_identity !m)

let read_kernel () =
  let s = ref 0 and j = ref 7 in
  for _ = 1 to 20_000 do
    j := ((!j * 1103515245) + 12345) land ((1 lsl 20) - 1);
    s := !s + Bigarray.Array1.unsafe_get table !j
  done;
  ignore (Sys.opaque_identity !s)

(* The untimed first pass brings a kernel's own data back into cache,
   so the timed pass does not depend on what the workload evicted. *)
let warmed_us f =
  Gc.minor ();
  f ();
  Gc.minor ();
  let t0 = Trace.now () in
  f ();
  float_of_int (Trace.now () - t0) /. 1e3

let calibrate () =
  let map = warmed_us map_kernel in
  let reads = warmed_us read_kernel in
  Float.sqrt (map *. (map +. reads))

(* ------------------------------------------------------------------ *)
(* run                                                                  *)

let result_line ~correct ~attempted ~failed metrics =
  Json.obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        Json.obj
          (List.map
             (fun (name, unit, v) -> (name, Json.obj [ ("value", Json.number v); ("unit", Json.string unit) ]))
             metrics) );
    ]

let print_self_times tbl =
  let rows = Hashtbl.fold (fun name (s : Trace.stat) acc -> (name, s) :: acc) tbl [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.Trace.self_ns a.Trace.self_ns) rows in
  Printf.eprintf "%-36s %9s %12s %12s\n" "span" "count" "total ms" "self ms";
  List.iter
    (fun (name, (s : Trace.stat)) ->
      Printf.eprintf "%-36s %9d %12.3f %12.3f\n" name s.spans (s.total_ns /. 1e6) (s.self_ns /. 1e6))
    rows

let run ~workload ~seed ~seconds ~trace ~ops ~cli ~out ~record =
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = workload) Workloads.all with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  Workloads.mkdir_p out;
  let ctx = { Workloads.seed; cli; out } in
  let warmup = match ops with Some n -> min w.warmup n | None -> w.warmup in
  let reps = match ops with Some _ -> 2 | None -> setup_reps in
  let attempted = ref 0 and failed = ref 0 and stopped = ref false in
  (* One op: untimed prepare, timed op, untimed check, and in a traced
     run every other op recorded as spans, with probes on some of them. *)
  let iterate (x : Workloads.instance) i ~armed =
    x.prepare i;
    let traced = armed && i land 1 = 1 in
    Trace.current_op := i;
    Trace.on := traced;
    let gc0 = if armed && not traced then Some (Gc.counters ()) else None in
    let t0 = Trace.now () in
    let raised = match Trace.span "op" (fun () -> x.op i) with () -> None | exception e -> Some e in
    let t1 = Trace.now () in
    (match gc0 with
     | Some (mi, pr, _) ->
       let mi', pr', _ = Gc.counters () in
       Trace.count "gc.minor_words" (mi' -. mi);
       Trace.count "gc.promoted_words" (pr' -. pr)
     | None -> ());
    incr attempted;
    (match raised with
     | Some e ->
       (* a raising repair leaves the view mutated: stop here *)
       incr failed;
       stopped := true;
       Printf.eprintf "perf: %s op %d raised %s\n%!" w.name i (Printexc.to_string e)
     | None ->
       if not (x.check i) then begin
         incr failed;
         Printf.eprintf "perf: %s op %d failed its check\n%!" w.name i
       end);
    if traced && ((i + 1) mod w.probe_every = 0 || i = warmup lor 1) && not !stopped then x.probe ();
    Trace.on := false;
    (t1 - t0, traced)
  in
  (* each setup is scaled by the mean of the kernel times just before
     and just after it *)
  let setups = ref [] and digests = ref [] and inst = ref None and setup_cals = ref [ calibrate () ] in
  let r = ref 1 in
  while !r <= reps && not !stopped do
    let armed = trace && !r = reps in
    Trace.reset ();
    Trace.armed := armed;
    Trace.current_op := -1;
    Trace.on := armed;
    let t0 = Trace.now () in
    let x = w.setup ctx in
    Trace.on := false;
    let din = ref fnv_init and dout = ref fnv_init and digest_ns = ref 0 in
    let i = ref 0 in
    while !i < warmup && not !stopped do
      ignore (iterate x !i ~armed);
      let td = Trace.now () in
      din := fnv !din (x.input_key !i);
      dout := fnv !dout (x.output_key !i);
      digest_ns := !digest_ns + (Trace.now () - td);
      incr i
    done;
    let t = float_of_int (Trace.now () - t0 - !digest_ns) /. 1e9 in
    let before = List.hd !setup_cals and after = calibrate () in
    setup_cals := after :: !setup_cals;
    setups := t *. reference_us /. ((before +. after) /. 2.0) :: !setups;
    digests := (Printf.sprintf "%016x" !din, Printf.sprintf "%016x" !dout) :: !digests;
    inst := Some x;
    incr r
  done;
  (* read after setup, whose work is fixed: the timed loop's op count
     varies with speed, and the serve view's undo history grows with it *)
  let setup_heap_words = (Gc.quick_stat ()).top_heap_words in
  let stream_digest, result_digest = List.hd !digests in
  if List.exists (fun d -> d <> (stream_digest, result_digest)) !digests then begin
    incr failed;
    Printf.eprintf "perf: %s: setup repetitions disagree on the warm-up digests\n%!" w.name
  end;
  let times = Samples.create () and traced_times = Samples.create () and plain_times = Samples.create () in
  let major0 = (Gc.quick_stat ()).major_collections in
  let start = Trace.now () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  (* Op times, and the loop's wall time between calibrations, are scaled
     by the kernel time that opens their window. *)
  let cal0 = calibrate () in
  let i = ref warmup and cals = ref [ cal0 ] and scale = ref (reference_us /. cal0) in
  let window = ref (Trace.now ()) and wall_ns = ref 0.0 in
  let close_window () = wall_ns := !wall_ns +. (!scale *. float_of_int (Trace.now () - !window)) in
  (match !inst with
   | Some x ->
     while
       (not !stopped)
       && match ops with Some n -> !i < warmup + n | None -> Trace.now () < deadline
     do
       let dt, traced = iterate x !i ~armed:trace in
       let dt = !scale *. float_of_int dt in
       if not !stopped then begin
         Samples.add times dt;
         Samples.add (if traced then traced_times else plain_times) dt
       end;
       if Trace.now () - !window > calibrate_every_ns then begin
         close_window ();
         let c = calibrate () in
         cals := c :: !cals;
         scale := reference_us /. c;
         window := Trace.now ()
       end;
       incr i
     done
   | None -> ());
  close_window ();
  let wall = !wall_ns /. 1e9 in
  (match !inst with
   | Some x when not !stopped ->
     let ok =
       try x.finish ()
       with e ->
         Printf.eprintf "perf: %s: %s\n%!" w.name (Printexc.to_string e);
         false
     in
     if not ok then begin
       incr failed;
       Printf.eprintf "perf: %s failed its final check\n%!" w.name
     end
   | _ -> ());
  let calibration_us = median !cals and setup_calibration_us = median !setup_cals in
  let q = Gc.quick_stat () in
  let sorted = Samples.sorted times in
  let timed = Array.length sorted in
  let correct = !failed = 0 in
  let metrics =
    if not trace then
      List.map
        (fun (e : Metrics.e2e) ->
          let v =
            match e.name with
            | "op_p50_us" -> percentile sorted 50.0 /. 1e3
            | "ops_per_s" -> if wall > 0.0 then float_of_int timed /. wall else 0.0
            | "setup_s" -> median !setups
            | "heap_peak_mb" -> float_of_int (setup_heap_words * (Sys.word_size / 8)) /. 1048576.0
            | other -> fail "no measurement for end-to-end metric %s" other
          in
          (e.name, e.unit, v))
        Metrics.end_to_end
    else begin
      Trace.count "gc.major_collections" (float_of_int (q.major_collections - major0));
      let p50 s = percentile (Samples.sorted s) 50.0 in
      if p50 plain_times > 0.0 then
        Trace.count "trace.overhead_pct" (((p50 traced_times /. p50 plain_times) -. 1.0) *. 100.0);
      let tbl = Trace.stats () in
      print_self_times tbl;
      let path = Filename.concat out (Printf.sprintf "trace-%s.json" w.name) in
      Trace.write_chrome path;
      Printf.eprintf "perf: wrote %s\n" path;
      List.map (fun (name, unit, _, f) -> (name, unit, f tbl)) Metrics.per_layer
    end
  in
  Printf.eprintf "perf: %s seed %d: %d timed ops in %.2f scaled s, %d attempted, %d failed, digests %s/%s\n"
    w.name seed timed wall !attempted !failed stream_digest result_digest;
  Printf.eprintf
    "perf: calibration kernel median %.1f us in the loop (%d runs), %.1f us in setup (reference %.0f us); op p90 %.4f us\n"
    calibration_us (List.length !cals) setup_calibration_us reference_us
    (percentile sorted 90.0 /. 1e3);
  List.iter (fun (name, unit, v) -> Printf.eprintf "  %-32s %16.4f %s\n" name v unit) metrics;
  let line = result_line ~correct ~attempted:!attempted ~failed:!failed metrics in
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.obj
               [
                 ("workload", Json.string w.name);
                 ("seed", string_of_int seed);
                 ("seconds", Json.number seconds);
                 ("trace", string_of_bool trace);
                 ("timed_ops", string_of_int timed);
                 ("calibration_us", Json.number calibration_us);
                 ("setup_calibration_us", Json.number setup_calibration_us);
                 ("stream_digest", Json.string stream_digest);
                 ("result_digest", Json.string result_digest);
                 ("result", line);
               ]);
          output_char oc '\n'))
    record;
  print_endline line;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

type record = {
  workload : string;
  seed : int;
  traced : bool;
  failed : int;
  digests : string * string;
  values : (string * float) list;
}

let read_records path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> String.split_on_char '\n' (really_input_string ic (in_channel_length ic)))
  in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        let j = try Json.parse line with Json.Error e -> fail "%s: %s" path e in
        let res = Json.member "result" j in
        Some
          {
            workload = Json.to_str (Json.member "workload" j);
            seed = int_of_float (Json.to_num (Json.member "seed" j));
            traced = Json.to_bool (Json.member "trace" j);
            failed = int_of_float (Json.to_num (Json.member "failed" res));
            digests =
              (Json.to_str (Json.member "stream_digest" j), Json.to_str (Json.member "result_digest" j));
            values =
              List.map
                (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
                (Json.to_assoc (Json.member "metrics" res));
          })
    lines

type row = {
  r_workload : string;
  r_metric : string;
  a : float;
  b : float;
  change : float;
  bound : float option;
  spread_a : float;
  spread_b : float;
  verdict : string;
}

(* One row per (workload, metric) present on both sides.  An end-to-end
   metric is "worse" when B's median is worse than A's by more than its
   bound; "unresolved" when either side's spread exceeds the bound,
   unless every B run beats every A run; "ok" otherwise.  Per-layer
   metrics have no bound and get verdict "-". *)
let compare_rows ra rb =
  let values traced name w rs =
    List.filter_map
      (fun r -> if r.workload = w && r.traced = traced then List.assoc_opt name r.values else None)
      rs
  in
  let workloads = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  List.concat_map
    (fun w ->
      let row traced name bound better =
        match (values traced name w ra, values traced name w rb) with
        | [], _ | _, [] -> None
        | va, vb ->
          let a = median va and b = median vb in
          let change = if a = 0.0 then 0.0 else (b -. a) /. Float.abs a in
          let worse_by = match better with Metrics.Lower -> change | Metrics.Higher -> -.change in
          let beats x y = match better with Metrics.Lower -> x < y | Metrics.Higher -> x > y in
          let spread_a = spread va and spread_b = spread vb in
          let verdict =
            match bound with
            | None -> "-"
            | Some bound ->
              if worse_by > bound then "worse"
              else if
                Float.max spread_a spread_b > bound
                && not (List.for_all (fun y -> List.for_all (fun x -> beats y x) va) vb)
              then "unresolved"
              else "ok"
          in
          Some { r_workload = w; r_metric = name; a; b; change; bound; spread_a; spread_b; verdict }
      in
      List.filter_map
        (fun (e : Metrics.e2e) -> row false e.name (Some e.bound) e.better)
        Metrics.end_to_end
      @ List.filter_map (fun (name, _, better, _) -> row true name None better) Metrics.per_layer)
    workloads

(* Runs of the same workload and seed must have done identical work. *)
let digest_mismatches records =
  let tbl = Hashtbl.create 16 in
  List.filter_map
    (fun r ->
      match Hashtbl.find_opt tbl (r.workload, r.seed) with
      | None ->
        Hashtbl.add tbl (r.workload, r.seed) r.digests;
        None
      | Some d when d = r.digests -> None
      | Some _ -> Some (r.workload, r.seed))
    records

let compare_files ?(print = true) fa fb =
  let ra = read_records fa and rb = read_records fb in
  let rows = compare_rows ra rb in
  let mismatches = digest_mismatches (ra @ rb) in
  let failed = List.filter (fun r -> r.failed > 0) (ra @ rb) in
  if print then begin
    Printf.printf "%-13s %-29s %14s %14s %8s %6s %8s %8s  %s\n" "workload" "metric" "A median" "B median"
      "change" "bound" "spread A" "spread B" "verdict";
    List.iter
      (fun r ->
        Printf.printf "%-13s %-29s %14.4f %14.4f %+7.1f%% %6s %7.1f%% %7.1f%%  %s\n" r.r_workload r.r_metric
          r.a r.b (100.0 *. r.change)
          (match r.bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
          (100.0 *. r.spread_a) (100.0 *. r.spread_b) r.verdict)
      rows;
    List.iter (fun (w, s) -> Printf.printf "digest mismatch: %s seed %d\n" w s) mismatches;
    List.iter (fun r -> Printf.printf "failed ops: %s seed %d (%d)\n" r.workload r.seed r.failed) failed
  end;
  let worse = List.exists (fun r -> r.verdict = "worse") rows in
  (rows, if worse || mismatches <> [] || failed <> [] then 1 else 0)

(* ------------------------------------------------------------------ *)
(* smoke                                                                *)

(* Per-layer metrics each workload must measure (read > 0) when traced. *)
let measured workload =
  let cview = [ "numeric.rational_compare_ns"; "cview.improves_ns"; "cview.is_nash_us"; "cbr.converge_us";
                "cgame.of_capacities_us"; "wire.decode_cgame_us"; "gc.minor_words_per_op" ] in
  let repair = [ "repair.frontier_links_mean"; "mutation.per_batch"; "wire.encode_log_ms" ] in
  match workload with
  | "serve_packed" -> cview @ repair @ [ "cview.packed_share" ]
  | "serve_spill" -> cview @ repair @ [ "cview.spill_count" ]
  | "serve_replay" -> cview @ repair @ [ "cli.startup_ms"; "cli.output_bytes_per_batch"; "wire.log_bytes" ]
  | "solve_cold" -> cview @ [ "cbr.steps_per_solve" ]
  | _ -> cview @ [ "load_dist.of_mixed_us"; "load_dist.expect_us"; "load_dist.states" ]

let smoke ~benchmark ~cli ~fixtures =
  let errors = ref 0 in
  let expect cond fmt =
    Printf.ksprintf
      (fun s ->
        if not cond then begin
          incr errors;
          prerr_endline ("smoke: " ^ s)
        end)
      fmt
  in
  let read = Workloads.read_file in
  (* BENCHMARK.json agrees with the tables here. *)
  let bench = Json.parse (read benchmark) in
  let workloads_json =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "why" m)))
      (Json.to_list (Json.member "workloads" bench))
  in
  expect
    (workloads_json = List.map (fun (w : Workloads.t) -> (w.name, w.why)) Workloads.all)
    "BENCHMARK.json workloads differ from Workloads.all";
  let e2e_json =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.to_str (Json.member "better" m),
          Json.to_num (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" bench))
  in
  expect
    (e2e_json
    = List.map (fun (e : Metrics.e2e) -> (e.name, e.unit, Metrics.better_name e.better, e.bound)) Metrics.end_to_end)
    "BENCHMARK.json end_to_end differs from Metrics.end_to_end";
  let layer_json =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.to_str (Json.member "better" m) ))
      (Json.to_list (Json.member "per_layer" bench))
  in
  expect
    (layer_json = List.map (fun (n, u, b, _) -> (n, u, Metrics.better_name b)) Metrics.per_layer)
    "BENCHMARK.json per_layer differs from Metrics.per_layer";
  (* Every workload, untraced and traced, with a few ops. *)
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun trace ->
          let stdout = Printf.sprintf "smoke-%s-%d.out" w.name trace in
          let stderr = Printf.sprintf "smoke-%s-%d.err" w.name trace in
          let status =
            Workloads.spawn Sys.executable_name
              [ "run"; "--workload"; w.name; "--seed"; "7"; "--ops"; "3"; "--trace"; string_of_int trace;
                "--cli"; cli; "--out"; "smoke-out" ]
              ~stdout ~stderr
          in
          expect (status = Unix.WEXITED 0) "%s trace %d: run did not exit 0 (see %s)" w.name trace stderr;
          let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read stdout)) in
          match List.rev lines with
          | [] -> expect false "%s trace %d: no output" w.name trace
          | last :: _ ->
            let j = Json.parse last in
            expect
              (List.map fst (Json.to_assoc j) = [ "correct"; "attempted"; "failed"; "metrics" ])
              "%s: result keys" w.name;
            expect (Json.to_bool (Json.member "correct" j)) "%s trace %d: not correct" w.name trace;
            expect (Json.to_num (Json.member "failed" j) = 0.0) "%s trace %d: failed ops" w.name trace;
            expect (Json.to_num (Json.member "attempted" j) >= 1.0) "%s trace %d: nothing attempted" w.name trace;
            let got =
              List.map
                (fun (n, v) -> (n, Json.to_str (Json.member "unit" v)))
                (Json.to_assoc (Json.member "metrics" j))
            in
            let want =
              if trace = 1 then List.map (fun (n, u, _) -> (n, u)) layer_json
              else List.map (fun (n, u, _, _) -> (n, u)) e2e_json
            in
            expect (got = want) "%s trace %d: metric names or units differ from BENCHMARK.json" w.name trace;
            if trace = 1 then
              List.iter
                (fun name ->
                  let v = Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" j))) in
                  expect (v > 0.0) "%s: per-layer %s should be measured, reads %g" w.name name v)
                (measured w.name))
        [ 0; 1 ])
    Workloads.all;
  (* compare on fixture result files *)
  let fx name = Filename.concat fixtures name in
  let verdict rows w m =
    match List.find_opt (fun r -> r.r_workload = w && r.r_metric = m) rows with
    | Some r -> r.verdict
    | None -> "missing"
  in
  let rows, status = compare_files ~print:false (fx "base.jsonl") (fx "same.jsonl") in
  expect (status = 0) "compare base same: status %d" status;
  expect (List.for_all (fun r -> r.verdict = "ok" || r.verdict = "-") rows) "compare base same: not all ok";
  expect (verdict rows "serve_packed" "cview.is_nash_us" = "-") "compare: per-layer row missing";
  let rows, status = compare_files ~print:false (fx "base.jsonl") (fx "worse.jsonl") in
  expect (status = 1) "compare base worse: status %d" status;
  expect (verdict rows "serve_packed" "op_p50_us" = "worse") "compare: op_p50_us should be worse";
  expect (verdict rows "serve_packed" "ops_per_s" = "unresolved") "compare: ops_per_s should be unresolved";
  expect (verdict rows "serve_packed" "setup_s" = "ok") "compare: setup_s should be ok";
  let _, status = compare_files ~print:false (fx "base.jsonl") (fx "digest.jsonl") in
  expect (status = 1) "compare base digest: a digest mismatch must fail";
  if !errors > 0 then exit 1;
  print_endline "smoke: ok"

(* ------------------------------------------------------------------ *)

let () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let rest = Array.sub argv 1 (max 0 (Array.length argv - 1)) in
  let workload = ref "" and seed = ref 2006 and seconds = ref 10.0 and trace = ref 0 in
  let ops = ref 0 and record = ref "" and cli = ref "_build/default/bin/selfish_routing.exe" in
  let out = ref "bench/perf/out" and benchmark = ref "BENCHMARK.json" and fixtures = ref "" in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 2006)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
      ("--ops", Arg.Set_int ops, "N run exactly N timed ops instead of --seconds");
      ("--record", Arg.Set_string record, "FILE append a run record (JSON line) to FILE");
      ("--cli", Arg.Set_string cli, "PATH the selfish_routing executable");
      ("--out", Arg.Set_string out, "DIR directory for generated inputs and traces");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json (smoke)");
      ("--fixtures", Arg.Set_string fixtures, "DIR compare fixtures (smoke)");
    ]
  in
  let usage = "perf.exe (run|compare|smoke) [options]" in
  (try Arg.parse_argv rest spec (fun a -> anon := a :: !anon) usage with
   | Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  match (sub, List.rev !anon) with
  | "run", [] ->
    if !workload = "" then fail "run needs --workload";
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~ops:(if !ops > 0 then Some !ops else None)
      ~cli:!cli ~out:!out
      ~record:(if !record = "" then None else Some !record)
  | "compare", [ a; b ] -> exit (snd (compare_files a b))
  | "smoke", [] -> smoke ~benchmark:!benchmark ~cli:!cli ~fixtures:!fixtures
  | _ ->
    prerr_endline usage;
    exit 2
