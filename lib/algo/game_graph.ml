open Model

type move_kind = Best_response | Better_response

let budget = 2_000_000

type cursor = {
  reset : int array -> unit;
  improves : int array -> int -> int -> bool;
  shift : int -> src:int -> dst:int -> unit;
}

(* Node ids are mixed-radix profile codes, bijective as [search_space]
   bounds [m^n]; moving user i from x to y adds (y - x)·m^i, so the
   current profile [p] is never re-encoded.  Colours: 0 unvisited, 1 on
   the stack, 2 done.  Frame d is its node [st.(2d)] and its next move
   [st.(2d+1)] = i·m + j (user i, link m-1-j): it resumes by scanning
   on to its next unvisited successor, and pops once its moves run out,
   shifting its entering move back.  A back edge closes the witness,
   the stack slice from its target to the top. *)
let search ~who ~users:n ~links:m c =
  let count = Numeric.Combinat.search_space ~who ~what:"pure profiles" ~budget m n in
  let pw = Array.make (n + 1) 1 in
  for i = 1 to n do
    pw.(i) <- pw.(i - 1) * m
  done;
  let decode id = Array.init n (fun i -> id / pw.(i) mod m) in
  let colour = Bytes.make count '\000' in
  let st = ref (Array.make 128 0) and top = ref (-1) in
  let push id =
    incr top;
    if 2 * !top = Array.length !st then st := Array.append !st (Array.make (2 * !top) 0);
    !st.(2 * !top) <- id;
    !st.((2 * !top) + 1) <- 0;
    Bytes.set colour id '\001'
  in
  let p = Array.make n 0 and cycle = ref None and root = ref 0 in
  while !cycle = None && !root < count do
    if Bytes.get colour !root = '\000' then begin
      Array.blit (decode !root) 0 p 0 n;
      c.reset p;
      push !root;
      while !cycle = None && !top >= 0 do
        let d = !top and st = !st in
        let i = ref (st.((2 * d) + 1) / m) and j = ref (st.((2 * d) + 1) mod m) in
        let child = ref (-1) in
        while !child < 0 && !cycle = None && !i < n do
          let x = p.(!i) and y = m - 1 - !j in
          if y <> x && c.improves p !i y then begin
            let s = st.(2 * d) + ((y - x) * pw.(!i)) in
            match Bytes.get colour s with
            | '\000' ->
              c.shift !i ~src:x ~dst:y;
              p.(!i) <- y;
              child := s
            | '\001' ->
              let rec base e = if st.(2 * e) = s then e else base (e - 1) in
              let b = base d in
              cycle := Some (List.init (d - b + 1) (fun e -> decode st.(2 * (b + e))))
            | _ -> ()
          end;
          if !j = m - 1 then (incr i; j := 0) else incr j
        done;
        st.((2 * d) + 1) <- (!i * m) + !j;
        if !child >= 0 then push !child
        else if !cycle = None then begin
          Bytes.set colour st.(2 * d) '\002';
          decr top;
          if d > 0 then begin
            let i = (st.((2 * d) - 1) - 1) / m in
            let src = st.(2 * (d - 1)) / pw.(i) mod m in
            c.shift i ~src:p.(i) ~dst:src;
            p.(i) <- src
          end
        end
      done
    end;
    incr root
  done;
  !cycle

(* One incremental View serves every root: [reset] shifts each user to
   the root's link, and tree edges shift unrecorded, since the search
   keeps its own stack. *)
let find_cycle ?initial g ~kind =
  let v = View.of_profile g ?initial (Array.make (Game.users g) 0) in
  let improves _ i l =
    View.improves v i l && (kind = Better_response || fst (View.best_response_for v i) = l)
  in
  let shift i ~src:_ ~dst = View.shift v i dst in
  search ~who:"Game_graph.find_cycle" ~users:(Game.users g) ~links:(Game.links g)
    { reset = Array.iteri (View.shift v); improves; shift }
