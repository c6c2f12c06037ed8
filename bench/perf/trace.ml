(* Spans and counters for the traced run.

   A span wraps one call the benchmark makes into a layer's public
   function (or a loop of [calls] such calls): name, start, end, the
   enclosing span, and the op id as the request id.  Spans live in
   column arrays and are written out once, when the run ends.  Counters
   accumulate per-op counts (moves, states, ...) under a name.

   [armed] marks a traced run; [on] says whether spans are being
   recorded right now, so the runner can trace every other op and
   measure the tracing overhead within one run. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let armed = ref false
let on = ref false
let current_op = ref (-1)

type columns = {
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable calls : int array;
}

let cols = { len = 0; name = [||]; start = [||]; stop = [||]; parent = [||]; op = [||]; calls = [||] }
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let open_spans = ref []
let counters : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 64

let reset () =
  cols.len <- 0;
  open_spans := [];
  Hashtbl.reset counters

let intern s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    i

let grow () =
  if cols.len = Array.length cols.name then begin
    let n = max 4096 (2 * cols.len) in
    let ext a = Array.append a (Array.make (n - cols.len) 0) in
    cols.name <- ext cols.name;
    cols.start <- ext cols.start;
    cols.stop <- ext cols.stop;
    cols.parent <- ext cols.parent;
    cols.op <- ext cols.op;
    cols.calls <- ext cols.calls
  end

let span ?(calls = 1) name f =
  if not !on then f ()
  else begin
    grow ();
    let id = cols.len in
    cols.len <- id + 1;
    cols.name.(id) <- intern name;
    cols.parent.(id) <- (match !open_spans with p :: _ -> p | [] -> -1);
    cols.op.(id) <- !current_op;
    cols.calls.(id) <- calls;
    open_spans := id :: !open_spans;
    let finish () =
      cols.stop.(id) <- now ();
      open_spans := List.tl !open_spans
    in
    cols.start.(id) <- now ();
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let count name x =
  if !armed then
    match Hashtbl.find_opt counters name with
    | Some (s, n) ->
      s := !s +. x;
      incr n
    | None -> Hashtbl.add counters name (ref x, ref 1)

let counter_sum name = match Hashtbl.find_opt counters name with Some (s, _) -> !s | None -> 0.0

let counter_mean name =
  match Hashtbl.find_opt counters name with
  | Some (s, n) when !n > 0 -> !s /. float_of_int !n
  | _ -> 0.0

type stat = { spans : int; total_ns : float; calls : int; self_ns : float }

let empty = { spans = 0; total_ns = 0.0; calls = 0; self_ns = 0.0 }

(* Per-name totals; a span's self time is its duration minus the
   durations of its direct children. *)
let stats () =
  let child = Array.make cols.len 0 in
  for i = 0 to cols.len - 1 do
    let p = cols.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (cols.stop.(i) - cols.start.(i))
  done;
  let by_id = Array.make (Hashtbl.length names) empty in
  for i = 0 to cols.len - 1 do
    let d = cols.stop.(i) - cols.start.(i) in
    let s = by_id.(cols.name.(i)) in
    by_id.(cols.name.(i)) <-
      {
        spans = s.spans + 1;
        total_ns = s.total_ns +. float_of_int d;
        calls = s.calls + cols.calls.(i);
        self_ns = s.self_ns +. float_of_int (d - child.(i));
      }
  done;
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter (fun name id -> if by_id.(id).spans > 0 then Hashtbl.replace tbl name by_id.(id)) names;
  tbl

let stat tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:empty

(* Chrome trace-event format ("X" complete events, microseconds).  Only
   the first 50,000 spans are written, to keep the file under 10 MB. *)
let write_chrome path =
  let limit = 50_000 in
  let id_name = Array.make (Hashtbl.length names) "" in
  Hashtbl.iter (fun s i -> id_name.(i) <- s) names;
  let t0 = if cols.len > 0 then cols.start.(0) else 0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"traceEvents\": [\n";
      let n = min limit cols.len in
      for i = 0 to n - 1 do
        Printf.fprintf oc
          "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
           \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d, \"calls\": %d}}%s\n"
          (Json.string id_name.(cols.name.(i)))
          (float_of_int (cols.start.(i) - t0) /. 1e3)
          (float_of_int (cols.stop.(i) - cols.start.(i)) /. 1e3)
          i cols.parent.(i) cols.op.(i) cols.calls.(i)
          (if i + 1 < n then "," else "")
      done;
      Printf.fprintf oc "], \"displayTimeUnit\": \"ns\", \"otherData\": {\"spans\": %d, \"written\": %d}}\n"
        cols.len n)
