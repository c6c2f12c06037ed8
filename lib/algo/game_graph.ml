open Model

type move_kind = Best_response | Better_response

let budget = 2_000_000

(* Node ids are mixed-radix profile codes, bijective while [m^n] stays
   within {!budget}; [find_cycle] checks that before decoding any. *)
let decode g k =
  let n = Game.users g and m = Game.links g in
  let p = Array.make n 0 in
  let rest = ref k in
  for i = 0 to n - 1 do
    p.(i) <- !rest mod m;
    rest := !rest / m
  done;
  p

(* The (user, target) moves defining a node's out-edges: ascending
   user, and within a user the better-response targets in descending
   link order. *)
let successor_moves v ~kind =
  let acc = ref [] in
  for i = View.users v - 1 downto 0 do
    match kind with
    | Best_response ->
      let target, best = View.best_response_for v i in
      if Numeric.Rational.compare best (View.latency v i) < 0 then acc := (i, target) :: !acc
    | Better_response ->
      List.iter (fun l -> acc := (i, l) :: !acc) (View.improving_moves v i)
  done;
  !acc

let find_cycle ?initial g ~kind =
  let count =
    Numeric.Combinat.search_space ~who:"Game_graph.find_cycle" ~what:"pure profiles" ~budget
      (Game.links g) (Game.users g)
  in
  let n = Game.users g and m = Game.links g in
  (* pw.(i) = m^i: moving user i from link l to l' shifts the node id by
     (l' - l)·m^i, so the DFS never re-encodes a whole profile. *)
  let pw = Array.make (max n 1) 1 in
  for i = 1 to n - 1 do
    pw.(i) <- pw.(i - 1) * m
  done;
  (* Recursive three-colour DFS; colours: 0 unvisited, 1 on stack,
     2 done.  [parent] reconstructs the witness cycle.  One [View] per
     DFS root carries the loads down the tree: each edge is an O(1)
     [move] on descent and an [undo] on return, where the seed decoded
     and re-materialised every node from scratch. *)
  let colour = Bytes.make count '\000' in
  let parent = Array.make count (-1) in
  let cycle = ref None in
  let rec dfs v id =
    Bytes.set colour id '\001';
    List.iter
      (fun (i, l) ->
        if !cycle = None then begin
          let s = id + ((l - View.link v i) * pw.(i)) in
          match Bytes.get colour s with
          | '\000' ->
            parent.(s) <- id;
            View.move v i l;
            dfs v s;
            View.undo v
          | '\001' ->
            (* Back edge: walk parents from id back to s. *)
            let rec collect u acc = if u = s then u :: acc else collect parent.(u) (u :: acc) in
            cycle := Some (List.map (decode g) (collect id []))
          | _ -> ()
        end)
      (successor_moves v ~kind);
    if Bytes.get colour id = '\001' then Bytes.set colour id '\002'
  in
  let id = ref 0 in
  while !cycle = None && !id < count do
    if Bytes.get colour !id = '\000' then dfs (View.of_profile g ?initial (decode g !id)) !id;
    incr id
  done;
  !cycle
