(* Search for better-response cycles in the linear belief model — the
   tool behind the E6 negative result in EXPERIMENTS.md.

   The paper (Section 3.2) cites an unpublished instance of B. Monien
   whose state space contains a cycle.  This tool hunts for one, either
   by random sampling over integer weight/capacity grids or by
   exhaustive enumeration of a small grid.  Integer arithmetic keeps the
   improvement test exact ((L_Y + w_i)·c^X < L_X·c^Y) and fast enough
   for tens of millions of instances.

     cycle_hunt random --users 3-4 --links 3-4 --attempts 1000000
     cycle_hunt exhaustive --users 3 --links 3 --max-weight 3 --max-capacity 3 *)

open Cmdliner

(* The largest state space one instance may have: the budget of the
   library's better-response cycle search, [Algo.Game_graph.find_cycle].
   Both commands check their largest (n, m) before the first search, so
   an over-budget grid is refused up front instead of wrapping [m^n]. *)
let check_space ~users ~links =
  try
    ignore
      (Numeric.Combinat.search_space ~who:"cycle_hunt" ~what:"pure profiles"
         ~budget:Algo.Game_graph.budget links users)
  with Invalid_argument msg ->
    prerr_endline msg;
    exit 2

(* What the search found in one instance.  An instance whose DFS
   overflowed the stack was not searched, so it counts as neither. *)
type verdict = Acyclic | Cyclic | Skipped

(* Three-colour DFS over the better-response graph of one instance;
   weights [w], capacities [c], [m] links.
   [p]/[loads] mirror the node the DFS sits at: decoded and refilled
   once per root, then maintained across edges by applying each move
   before recursing and reverting it after — the integer analogue of
   Model.View's O(1) move/undo, replacing the seed's per-node decode
   plus full load refill. *)
let search ~w ~c ~m =
  let n = Array.length w in
  (* pw.(i) = m^i; [check_space] has bounded pw.(n). *)
  let pw = Array.make (n + 1) 1 in
  for i = 1 to n do
    pw.(i) <- pw.(i - 1) * m
  done;
  let nodes = pw.(n) in
  let colour = Bytes.make nodes '\000' in
  let cycle = ref false in
  let p = Array.make n 0 in
  let loads = Array.make m 0 in
  let rec dfs v =
    Bytes.set colour v '\001';
    for i = 0 to n - 1 do
      if not !cycle then begin
        let x = p.(i) in
        for y = 0 to m - 1 do
          if
            (not !cycle) && y <> x
            && (loads.(y) + w.(i)) * c.(i).(x) < loads.(x) * c.(i).(y)
          then begin
            let s = v + ((y - x) * pw.(i)) in
            match Bytes.get colour s with
            | '\000' ->
              (* Apply the move, explore, revert — [cycle] only ever
                 flips to true, so the revert is safe to run always. *)
              p.(i) <- y;
              loads.(x) <- loads.(x) - w.(i);
              loads.(y) <- loads.(y) + w.(i);
              dfs s;
              p.(i) <- x;
              loads.(y) <- loads.(y) - w.(i);
              loads.(x) <- loads.(x) + w.(i)
            | '\001' -> cycle := true
            | _ -> ()
          end
        done
      end
    done;
    if not !cycle then Bytes.set colour v '\002'
  in
  try
    let v = ref 0 in
    while (not !cycle) && !v < nodes do
      if Bytes.get colour !v = '\000' then begin
        let rest = ref !v in
        for i = 0 to n - 1 do
          p.(i) <- !rest mod m;
          rest := !rest / m
        done;
        Array.fill loads 0 m 0;
        Array.iteri (fun i l -> loads.(l) <- loads.(l) + w.(i)) p;
        dfs !v
      end;
      incr v
    done;
    if !cycle then Cyclic else Acyclic
  with Stack_overflow ->
    prerr_endline "warning: DFS overflow; instance skipped";
    Skipped

let print_instance w c =
  Printf.printf "weights = [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int w)));
  Array.iteri
    (fun i row ->
      Printf.printf "capacities[%d] = [%s]\n" i
        (String.concat "; " (Array.to_list (Array.map string_of_int row))))
    c

(* Skipped instances were not searched: summaries count "N of T"
   instances when some were skipped, name the skipped ones on a line of
   their own and fail the run, so a clean summary means a full search. *)
let searched ~skipped total =
  if skipped = 0 then string_of_int total else Printf.sprintf "%d of %d" (total - skipped) total

let exit_if_skipped skipped =
  if skipped > 0 then begin
    Printf.printf "%d instances skipped after a DFS stack overflow\n" skipped;
    exit 1
  end

(* The one count converter: an attempt count or a grid bound below 1
   is a usage error (exit 124) reported by cmdliner, not an exception
   from the search. *)
let positive s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a positive integer" s))

let positive_int = Arg.conv (positive, Format.pp_print_int)

let range_conv =
  let parse s =
    match String.split_on_char '-' s with
    | [ a ] -> Result.map (fun a -> (a, a)) (positive a)
    | [ a; b ] -> (
      match (positive a, positive b) with
      | Ok a, Ok b when a <= b -> Ok (a, b)
      | Ok _, Ok _ -> Error (`Msg (Printf.sprintf "invalid range '%s', LO exceeds HI" s))
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected N or LO-HI" s))
  in
  Arg.conv (parse, fun fmt (a, b) -> Format.fprintf fmt "%d-%d" a b)

let run_random (n_lo, n_hi) (m_lo, m_hi) attempts w_hi c_hi seed =
  check_space ~users:n_hi ~links:m_hi;
  (* Attempt [i] draws from its own stream [Rng.of_path seed [0; i]], so
     the instance tested at index [i] does not depend on the attempts
     before it.  Attempts run in ascending order, so the first hit is
     the smallest one, and only instances before it count as skipped. *)
  let skipped = ref 0 in
  let rec go i =
    if i > 0 && i mod 1_000_000 = 0 then Printf.printf "%d attempts...\n%!" i;
    if i >= attempts then begin
      Printf.printf
        "no better-response cycle in %s random instances (n=%d-%d, m=%d-%d, w<=%d, c<=%d)\n"
        (searched ~skipped:!skipped attempts)
        n_lo n_hi m_lo m_hi w_hi c_hi;
      exit_if_skipped !skipped
    end
    else begin
      let rng = Prng.Rng.of_path seed [ 0; i ] in
      let n = Prng.Rng.int_in rng n_lo n_hi and m = Prng.Rng.int_in rng m_lo m_hi in
      let w = Array.init n (fun _ -> Prng.Rng.int_in rng 1 w_hi) in
      let c = Array.init n (fun _ -> Array.init m (fun _ -> Prng.Rng.int_in rng 1 c_hi)) in
      match search ~w ~c ~m with
      | Cyclic ->
        Printf.printf "CYCLE FOUND at attempt %d (n=%d, m=%d):\n" (i + 1) n m;
        print_instance w c;
        exit_if_skipped !skipped
      | Skipped ->
        incr skipped;
        go (i + 1)
      | Acyclic -> go (i + 1)
    end
  in
  go 0

let random_cmd =
  let users = Arg.(value & opt range_conv (3, 4) & info [ "users" ] ~docv:"LO-HI") in
  let links = Arg.(value & opt range_conv (3, 3) & info [ "links" ] ~docv:"LO-HI") in
  let attempts = Arg.(value & opt positive_int 1_000_000 & info [ "attempts" ]) in
  let w_hi = Arg.(value & opt positive_int 9 & info [ "max-weight" ]) in
  let c_hi = Arg.(value & opt positive_int 40 & info [ "max-capacity" ]) in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  let info = Cmd.info "random" ~doc:"Random sampling over an integer grid." in
  Cmd.v info Term.(const run_random $ users $ links $ attempts $ w_hi $ c_hi $ seed)

let run_exhaustive n m w_hi c_hi =
  check_space ~users:n ~links:m;
  let w = Array.make n 1 and c = Array.init n (fun _ -> Array.make m 1) in
  let total = ref 0 and cycles = ref 0 and skipped = ref 0 in
  let check () =
    incr total;
    match search ~w ~c ~m with
    | Acyclic -> ()
    | Skipped -> incr skipped
    | Cyclic ->
      incr cycles;
      if !cycles = 1 then begin
        print_endline "CYCLE FOUND:";
        print_instance w c
      end
  in
  let rec enum_caps i l =
    if i = n then check ()
    else if l = m then enum_caps (i + 1) 0
    else
      for v = 1 to c_hi do
        c.(i).(l) <- v;
        enum_caps i (l + 1)
      done
  in
  let rec enum_weights i =
    if i = n then enum_caps 0 0
    else
      for v = 1 to w_hi do
        w.(i) <- v;
        enum_weights (i + 1)
      done
  in
  enum_weights 0;
  Printf.printf "exhaustive n=%d m=%d w<=%d c<=%d: %s instances, %d with better-response cycles\n"
    n m w_hi c_hi
    (searched ~skipped:!skipped !total)
    !cycles;
  exit_if_skipped !skipped

let exhaustive_cmd =
  let users = Arg.(value & opt positive_int 3 & info [ "users" ] ~docv:"N") in
  let links = Arg.(value & opt positive_int 3 & info [ "links" ] ~docv:"N") in
  let w_hi = Arg.(value & opt positive_int 3 & info [ "max-weight" ]) in
  let c_hi = Arg.(value & opt positive_int 3 & info [ "max-capacity" ]) in
  let info = Cmd.info "exhaustive" ~doc:"Enumerate every weight/capacity combination of a grid." in
  Cmd.v info Term.(const run_exhaustive $ users $ links $ w_hi $ c_hi)

let () =
  let doc = "Hunt for better-response cycles in the linear belief model (E6)." in
  exit (Cmd.eval (Cmd.group (Cmd.info "cycle_hunt" ~doc) [ random_cmd; exhaustive_cmd ]))
