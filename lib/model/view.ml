open Numeric

(* The cursor: current profile, current loads (initial traffic
   included), and a packed move history for [undo].  A history entry
   stores [i * m + old_link] in one native int, so the stack is a flat
   int array that doubles on demand.

   Loads live in a [Packing] lane (packed native ints when the game's
   magnitudes allow, [Bigint] numerators over one common denominator
   otherwise); each user is one row of it, and the exact per-user
   tables are read straight from the immutable [Game.t], so no per-user
   state is copied. *)

type t = {
  rows : Packing.rows;
  prof : int array;
  lane : Packing.lane;
  mutable hist : int array;
  mutable depth : int;
}

let users v = Array.length v.prof
let links v = Packing.links v.lane
let packed v = Packing.is_packed v.lane

let of_profile g ?initial p =
  if Array.length p <> Game.users g then
    invalid_arg "View.of_profile: profile length differs from user count";
  let m = Game.links g in
  (match initial with
   | None -> ()
   | Some t ->
     if Array.length t <> m then
       invalid_arg "View.of_profile: initial traffic length differs from link count";
     Array.iter
       (fun q -> if Rational.sign q < 0 then invalid_arg "View.of_profile: negative initial traffic")
       t);
  Array.iter
    (fun l -> if l < 0 || l >= m then invalid_arg "View.of_profile: link out of range")
    p;
  let rows = Game.rows g in
  let lane = Packing.make_lane (Game.packed_tables g) rows ?initial m in
  Array.iteri (fun i l -> Packing.add_count lane i ~link:l ~delta:1) p;
  Packing.audit lane rows (fun i l -> if p.(i) = l then 1 else 0);
  {
    rows;
    prof = Array.copy p;
    lane;
    hist = Array.make 16 0;
    depth = 0;
  }

let link v i = v.prof.(i)
let profile v = Array.copy v.prof
let load v l = Packing.load v.lane l
let depth v = v.depth

(* Unrecorded reassignment: the O(1) delta shared by [move], [undo] and
   the sweep odometer. *)
let shift v i l =
  let old = v.prof.(i) in
  if l <> old then begin
    Packing.shift v.lane i ~src:old ~dst:l 1;
    v.prof.(i) <- l
  end

let push v entry =
  if v.depth = Array.length v.hist then begin
    let bigger = Array.make (2 * v.depth) 0 in
    Array.blit v.hist 0 bigger 0 v.depth;
    v.hist <- bigger
  end;
  v.hist.(v.depth) <- entry;
  v.depth <- v.depth + 1

let move v i l =
  if i < 0 || i >= users v then invalid_arg "View.move: user out of range";
  if l < 0 || l >= links v then invalid_arg "View.move: link out of range";
  push v ((i * links v) + v.prof.(i));
  shift v i l

let undo v =
  if v.depth = 0 then invalid_arg "View.undo: empty history";
  v.depth <- v.depth - 1;
  let entry = v.hist.(v.depth) in
  let m = links v in
  shift v (entry / m) (entry mod m)

let latency v i = Packing.latency v.lane v.rows i v.prof.(i)
let latency_on_link v i l = Packing.latency_after_move v.lane v.rows i ~src:v.prof.(i) l
let best_response_for v i = Packing.best_response v.lane v.rows i ~src:v.prof.(i)
let is_defector v i = Packing.is_defector v.lane v.rows i ~src:v.prof.(i)

let improving_moves v i =
  List.filter (Packing.improves v.lane v.rows i ~src:v.prof.(i)) (List.init (links v) Fun.id)

let is_nash v =
  let n = users v in
  let rec check i = i >= n || ((not (is_defector v i)) && check (i + 1)) in
  check 0

let defectors v = List.filter (is_defector v) (List.init (users v) Fun.id)

let social_cost1 v =
  let acc = ref Rational.zero in
  for i = 0 to users v - 1 do
    acc := Rational.add !acc (latency v i)
  done;
  !acc

let social_cost2 v =
  let acc = ref Rational.zero in
  for i = 0 to users v - 1 do
    acc := Rational.max !acc (latency v i)
  done;
  !acc

(* The odometer of [Social.iter_profiles], expressed as moves: a
   non-carrying tick is one shift, a carry resets a suffix — 1 + 1/m
   + 1/m² + … ≤ m/(m-1) shifts amortised per profile.  Returns false
   when the odometer wraps past the last profile. *)
let tick v =
  let m = links v in
  let rec next i =
    if i < 0 then false
    else begin
      let l = v.prof.(i) in
      if l + 1 < m then begin
        shift v i (l + 1);
        true
      end
      else begin
        shift v i 0;
        next (i - 1)
      end
    end
  in
  next (users v - 1)

let sweep g ?initial f =
  let v = of_profile g ?initial (Array.make (Game.users g) 0) in
  let continue = ref true in
  while !continue do
    f v;
    continue := tick v
  done
