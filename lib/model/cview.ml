open Numeric

(* The cursor: current assignment counts, current loads, and a packed
   move history for [undo].  A history entry is two ints —
   [(cls * m + src) * m + dst] and [count] — so the stack is a flat
   int array that doubles on demand.  Structural deltas (count /
   weight / capacity revisions) push a sentinel meta [-1] paired with
   a variant on the [shist] side stack, so moves keep their two-int
   cost and [undo] reverts both kinds in LIFO order.

   Like [View], loads live in a [Packing] lane, one row per class.  A
   structural delta that breaks the packed product bound spills the
   live loads to the exact [Bigint] lane without rebuilding; the
   abandoned packed lane is kept in the undo entry so reverting the
   delta restores the fast lane bit-identically.

   The class tables (weights, contributions, biases, capacity rows)
   are view-local copies of [Cgame.rows]: revisions mutate the view,
   never the underlying [Cgame.t], and [to_cgame] re-materialises a
   game from the revised state.

   A latency is (load_l + bias_c)·cd_{c,l}/cn_{c,l}, so SC1 =
   Σ_l load_l·A_l + B with A_l = Σ_c e_{c,l}·cd_{c,l}/cn_{c,l} and
   B = Σ_{c,l} e_{c,l}·bias_c·cd_{c,l}/cn_{c,l}.  A is kept on integers:
   over one common multiple D of the rows' capacity numerators,
   D·A_l is a [Bigint], so a query is m integer products with the
   lane's load numerators and one [Rational.make].  The first
   [social_cost1] builds the aggregates; from then on count changes
   only mark their (class, link) pair — no exact work on the move path
   — and the next query folds the marked pairs in.  A capacity
   revision refolds its one pair; a reweight moves only B, which is
   zero outside Participation rows.

   [certified] is a Nash certificate: set by a clean exact scan or by
   [certify], cleared by every state change (a move, an undo, a
   structural delta), so a caller that proved equilibrium by other
   means need not scan again. *)

(* Undo record for one structural delta.  [restore = Some lane] marks
   a delta that spilled the packed lane; reverting it reinstates the
   saved lane, which the delta never touched. *)
type sdelta =
  | Scount of { cls : int; link : int; delta : int; restore : Packing.lane option }
  | Sweight of {
      cls : int;
      weight : Rational.t;
      contrib : Rational.t;
      bias : Rational.t;
      restore : Packing.lane option;
    }
  | Scap of { cls : int; link : int; cap : Rational.t; restore : Packing.lane option }

(* SC1 aggregates.  [d] is a common multiple of every capacity
   numerator in the rows and [na.(l)] = d·A_l.  [folded]
   holds the counts A and B were last built from, row-major [c * m + l];
   [marked] pairs sit on [pending], whose k·m slots hold every pair at
   most once.  [bits] is d's bit length when the aggregates were
   built. *)
type sc1 = {
  mutable d : Bigint.t;
  bits : int;
  na : Bigint.t array;
  mutable b : Rational.t;
  folded : int array;
  marked : bool array;
  pending : int array;
  mutable npending : int;
}

type t = {
  game : Cgame.t;
  assign : int array array;
  rows : Packing.rows; (* view-local class tables *)
  mutable lane : Packing.lane;
  mutable hist : int array;
  mutable depth : int;
  mutable shist : sdelta list;
  mutable nrev : int; (* structural deltas currently applied *)
  mutable sc1 : sc1 option; (* built by the first [social_cost1] *)
  mutable certified : bool; (* proven Nash since the last state change *)
}

let classes v = Array.length v.assign
let links v = Packing.links v.lane
let packed v = Packing.is_packed v.lane
let scale v = Packing.scale v.lane

let of_profile g x =
  Cgame.validate g x;
  let shared = Cgame.rows g in
  let rows =
    {
      Packing.weights = Array.copy shared.weights;
      contribs = Array.copy shared.contribs;
      biases = Array.copy shared.biases;
      caps = Array.map Array.copy shared.caps;
    }
  in
  let lane = Packing.make_lane (Cgame.packed_tables g) rows (Cgame.links g) in
  Array.iteri
    (fun c row ->
      Array.iteri (fun l e -> if e > 0 then Packing.add_count lane c ~link:l ~delta:e) row)
    x;
  Packing.audit lane rows (fun c l -> x.(c).(l));
  {
    game = g;
    assign = Array.map Array.copy x;
    rows;
    lane;
    hist = Array.make 32 0;
    depth = 0;
    shist = [];
    nrev = 0;
    sc1 = None;
    certified = false;
  }

let assigned v c l = v.assign.(c).(l)
let profile v = Array.map Array.copy v.assign
let weight v c = v.rows.weights.(c)
let capacity v c l = v.rows.caps.(c).(l)
let class_count v c = Array.fold_left ( + ) 0 v.assign.(c)
let revised v = v.nrev > 0
let load v l = Packing.load v.lane l
let loads v = Array.init (links v) (load v)
let depth v = v.depth
let certified v = v.certified

(* Queue pair (c, l) for the next SC1 fold once the aggregates exist. *)
let mark v c l =
  match v.sc1 with
  | None -> ()
  | Some s ->
    let i = (c * Array.length s.na) + l in
    if not s.marked.(i) then begin
      s.marked.(i) <- true;
      s.pending.(s.npending) <- i;
      s.npending <- s.npending + 1
    end

(* [e·bias·cd/cn] onto B for [e] class-[c] users on link [l]. *)
let add_bias rows s c l e bias =
  if not (Rational.is_zero bias) then
    let r = Rational.div bias rows.Packing.caps.(c).(l) in
    s.b <- Rational.add s.b (Rational.mul (Rational.of_int e) r)

(* Add [e] (possibly negative) class-[c] users on link [l] to the
   aggregates: [e·cd·(d/cn)] onto d·A_l, and their bias term onto B. *)
let fold_in rows s c l e =
  let cap = rows.Packing.caps.(c).(l) in
  let share = Bigint.mul (Rational.den cap) (Bigint.div s.d (Rational.num cap)) in
  s.na.(l) <- Bigint.add s.na.(l) (Bigint.mul (Bigint.of_int e) share);
  add_bias rows s c l e rows.biases.(c)

(* The factor that extends [d] to a multiple of the numerator [cn]. *)
let extension d cn = Bigint.div cn (Bigint.gcd d cn)

(* Run [f], which sets class [c]'s capacity on link [l] to [cap], with
   that one pair taken out of the aggregates and put back.  When
   [cap]'s numerator does not divide d, d and every d·A_l grow by the
   missing factor — unless d would then have twice the bits it was
   built with: the aggregates are dropped instead, and the next query
   rebuilds them over the live rows, so d stays below twice the bit
   length of the lcm it was last built as, however long the stream
   runs. *)
let recapping v c l cap f =
  match v.sc1 with
  | None -> f ()
  | Some s ->
    let x = extension s.d (Rational.num cap) in
    let d = Bigint.mul s.d x in
    if Bigint.num_bits d >= 2 * s.bits then begin
      v.sc1 <- None;
      f ()
    end
    else begin
      let i = (c * Array.length s.na) + l in
      let e = s.folded.(i) in
      if e > 0 then fold_in v.rows s c l (-e);
      f ();
      if not (Bigint.equal x Bigint.one) then begin
        s.d <- d;
        Array.iteri (fun j y -> s.na.(j) <- Bigint.mul y x) s.na
      end;
      if e > 0 then fold_in v.rows s c l e
    end

(* Run [f], which changes class [c]'s weight, contribution and bias,
   moving B by the bias change.  A does not depend on the weight. *)
let rebiasing v c f =
  let bias = v.rows.biases.(c) in
  f ();
  match v.sc1 with
  | None -> ()
  | Some s ->
    let delta = Rational.sub v.rows.biases.(c) bias in
    let m = Array.length s.na in
    for l = 0 to m - 1 do
      let e = s.folded.((c * m) + l) in
      if e > 0 then add_bias v.rows s c l e delta
    done

(* Unrecorded block reassignment shared by [move] and [undo]: one
   exact multiplication and two load updates, whatever [count] is. *)
let shift v cls src dst count =
  v.certified <- false;
  if count > 0 && src <> dst then begin
    Packing.shift v.lane cls ~src ~dst count;
    v.assign.(cls).(src) <- v.assign.(cls).(src) - count;
    v.assign.(cls).(dst) <- v.assign.(cls).(dst) + count;
    mark v cls src;
    mark v cls dst
  end

let push v meta count =
  if 2 * v.depth = Array.length v.hist then begin
    let bigger = Array.make (4 * v.depth) 0 in
    Array.blit v.hist 0 bigger 0 (2 * v.depth);
    v.hist <- bigger
  end;
  v.hist.(2 * v.depth) <- meta;
  v.hist.((2 * v.depth) + 1) <- count;
  v.depth <- v.depth + 1

let move v ~cls ~src ~dst ~count =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.move: class out of range";
  if src < 0 || src >= m || dst < 0 || dst >= m then invalid_arg "Cview.move: link out of range";
  if count < 0 then invalid_arg "Cview.move: negative count";
  if count > v.assign.(cls).(src) && src <> dst then
    invalid_arg "Cview.move: not enough users of the class on the source link";
  push v ((((cls * m) + src) * m) + dst) count;
  shift v cls src dst count

(* Install the lane a [Packing.revise_*] returned.  A fresh lane means
   the delta spilled: the old one is the lane to restore on undo. *)
let relane v lane =
  let old = v.lane in
  v.lane <- lane;
  if lane == old then None else Some old

(* The lane's scale invariant under SELFISH_SANITIZE, checked after
   every construction, spill and reweight. *)
let audit v = Packing.audit v.lane v.rows (fun c l -> v.assign.(c).(l))

let push_structural v d =
  audit v;
  v.certified <- false;
  push v (-1) 0;
  v.shist <- d :: v.shist;
  v.nrev <- v.nrev + 1

let revise_count v ~cls ~link ~delta =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_count: class out of range";
  if link < 0 || link >= m then invalid_arg "Cview.revise_count: link out of range";
  if delta < 0 && v.assign.(cls).(link) + delta < 0 then
    invalid_arg "Cview.revise_count: departures exceed the users of the class on the link";
  if delta > 0 && v.assign.(cls).(link) > max_int - delta then
    invalid_arg "Cview.revise_count: arrival count overflows";
  if delta < 0 && class_count v cls + delta <= 0 then
    invalid_arg "Cview.revise_count: revision would empty the class";
  let lane = Packing.revise_count v.lane v.rows cls ~link ~delta in
  v.assign.(cls).(link) <- v.assign.(cls).(link) + delta;
  mark v cls link;
  push_structural v (Scount { cls; link; delta; restore = relane v lane })

let set_class_weight v cls w contrib bias =
  v.rows.weights.(cls) <- w;
  v.rows.contribs.(cls) <- contrib;
  v.rows.biases.(cls) <- bias

let revise_weight v ~cls w' =
  let k = classes v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_weight: class out of range";
  if Rational.sign w' <= 0 then invalid_arg "Cview.revise_weight: weight must be positive";
  let contrib' = Population.contribution (Cgame.uncertainty v.game cls) w' in
  let weight = v.rows.weights.(cls)
  and contrib = v.rows.contribs.(cls)
  and bias = v.rows.biases.(cls) in
  let lane = Packing.revise_weight v.lane v.rows cls v.assign.(cls) ~weight:w' ~contrib:contrib' in
  rebiasing v cls (fun () -> set_class_weight v cls w' contrib' (Rational.sub w' contrib'));
  push_structural v (Sweight { cls; weight; contrib; bias; restore = relane v lane })

let revise_capacity v ~cls ~link cap' =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.revise_capacity: class out of range";
  if link < 0 || link >= m then invalid_arg "Cview.revise_capacity: link out of range";
  if Rational.sign cap' <= 0 then invalid_arg "Cview.revise_capacity: capacity must be positive";
  let cap = v.rows.caps.(cls).(link) in
  let lane = Packing.revise_capacity v.lane v.rows cls ~link cap' in
  recapping v cls link cap' (fun () -> v.rows.caps.(cls).(link) <- cap');
  push_structural v (Scap { cls; link; cap; restore = relane v lane })

let undo_structural v =
  match v.shist with
  | [] -> assert false (* sentinel in hist implies a side-stack entry *)
  | d :: rest ->
    v.certified <- false;
    v.shist <- rest;
    v.nrev <- v.nrev - 1;
    let revert_lane restore revert =
      match restore with Some lane -> v.lane <- lane | None -> revert ()
    in
    (match d with
     | Scount { cls; link; delta; restore } ->
       v.assign.(cls).(link) <- v.assign.(cls).(link) - delta;
       mark v cls link;
       revert_lane restore (fun () -> Packing.add_count v.lane cls ~link ~delta:(-delta))
     | Sweight { cls; weight; contrib; bias; restore } ->
       revert_lane restore (fun () -> Packing.reweight v.lane v.rows cls v.assign.(cls) ~weight ~contrib);
       rebiasing v cls (fun () -> set_class_weight v cls weight contrib bias)
     | Scap { cls; link; cap; restore } ->
       recapping v cls link cap (fun () -> v.rows.caps.(cls).(link) <- cap);
       revert_lane restore (fun () -> Packing.set_capacity v.lane cls ~link cap));
    audit v

let undo v =
  if v.depth = 0 then invalid_arg "Cview.undo: empty history";
  v.depth <- v.depth - 1;
  let meta = v.hist.(2 * v.depth) and count = v.hist.((2 * v.depth) + 1) in
  if meta < 0 then undo_structural v
  else begin
    let m = links v in
    let dst = meta mod m in
    let src = meta / m mod m in
    let cls = meta / (m * m) in
    shift v cls dst src count
  end

(* Forget the undo history without touching the state: the structural
   deltas stay applied ([nrev] is kept), they just can no longer be
   reverted. *)
let clear_history v =
  v.hist <- Array.make 32 0;
  v.depth <- 0;
  v.shist <- []

let latency v c l = Packing.latency v.lane v.rows c l
let latency_after_move v ~cls ~src dst = Packing.latency_after_move v.lane v.rows cls ~src dst
let best_response_for v ~cls ~src = Packing.best_response v.lane v.rows cls ~src
let best_link v ~cls ~src = Packing.best_link v.lane v.rows cls ~src
let is_defector v ~cls ~src = Packing.is_defector v.lane v.rows cls ~src
let improves v ~cls ~src dst = Packing.improves v.lane v.rows cls ~src dst

let first_defecting_source ?only v ~cls =
  let s = Packing.first_defecting_source ?only v.lane v.rows cls v.assign.(cls) in
  if s < 0 then None else Some s

(* Class ascending, source link ascending: the exact order in which
   [Cgame.expand_profile] lays out the users, so the first defecting
   pair is the per-user first-defector choice computed without any
   per-user work.  A loop, so a clean scan allocates nothing. *)
let first_defecting_pair v =
  let k = classes v and c = ref 0 and s = ref (-1) in
  while !s < 0 && !c < k do
    s := Packing.first_defecting_source v.lane v.rows !c v.assign.(!c);
    if !s < 0 then incr c
  done;
  if !s < 0 then None else Some (!c, !s)

(* The scan is exact, so a clean one certifies the cursor; [is_nash]
   never reads the bit. *)
let scan v =
  let r = first_defecting_pair v in
  if Option.is_none r then v.certified <- true;
  r

(* A pair defects iff its best response strictly beats staying put, so
   that best response (lowest index among the minimisers) is the move. *)
let first_defector v = Option.map (fun (c, l) -> (c, l, best_link v ~cls:c ~src:l)) (scan v)

let is_nash v = Option.is_none (scan v)

let certify v =
  if !Sanitize.enabled && not (is_nash v) then
    Sanitize.fail "Cview.certify: the profile is not a Nash equilibrium";
  v.certified <- true

(* The closed form and its derivation live with the lane kernel
   [Packing.max_block]. *)
let max_improving_block v ~cls ~src ~dst =
  let k = classes v and m = links v in
  if cls < 0 || cls >= k then invalid_arg "Cview.max_improving_block: class out of range";
  if src < 0 || src >= m || dst < 0 || dst >= m then
    invalid_arg "Cview.max_improving_block: link out of range";
  if src = dst then invalid_arg "Cview.max_improving_block: source and destination coincide";
  Packing.max_block v.lane v.rows cls ~src ~dst ~avail:v.assign.(cls).(src)

(* The aggregates with every marked pair's count change folded in.  The
   first call builds them over d = the lcm of the rows' capacity
   numerators, marking every occupied pair. *)
let sc1_aggregates v =
  let m = links v in
  let s =
    match v.sc1 with
    | Some s -> s
    | None ->
      let d =
        Array.fold_left
          (Array.fold_left (fun d cap -> Bigint.mul d (extension d (Rational.num cap))))
          Bigint.one v.rows.caps
      in
      let km = classes v * m in
      let s =
        {
          d;
          bits = Bigint.num_bits d;
          na = Array.make m Bigint.zero;
          b = Rational.zero;
          folded = Array.make km 0;
          marked = Array.make km false;
          pending = Array.make km 0;
          npending = 0;
        }
      in
      v.sc1 <- Some s;
      Array.iteri (fun c row -> Array.iteri (fun l e -> if e > 0 then mark v c l) row) v.assign;
      s
  in
  for j = 0 to s.npending - 1 do
    let i = s.pending.(j) in
    let e = v.assign.(i / m).(i mod m) in
    s.marked.(i) <- false;
    if e <> s.folded.(i) then begin
      fold_in v.rows s (i / m) (i mod m) (e - s.folded.(i));
      s.folded.(i) <- e
    end
  done;
  s.npending <- 0;
  s

(* The from-scratch fold Σ_{c,l} e_{c,l}·latency(c, l) the aggregates
   stand for, under SELFISH_SANITIZE. *)
let check_sc1 v got =
  let acc = ref Rational.zero in
  Array.iteri
    (fun c row ->
      Array.iteri
        (fun l e ->
          if e > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int e) (latency v c l)))
        row)
    v.assign;
  if not (Rational.equal got !acc) then
    Sanitize.fail
      (Printf.sprintf "Cview.social_cost1: the aggregates give %s, the fold %s"
         (Rational.to_string got) (Rational.to_string !acc))

let sc1_multiple v = Option.map (fun s -> s.d) v.sc1

(* Σ_l load_l·A_l + B with load_l = num_l/scale and A_l = na_l/d: one
   integer sum of products, then one [Rational.make]. *)
let social_cost1 v =
  let s = sc1_aggregates v in
  let acc = ref Bigint.zero in
  Array.iteri (fun l a -> acc := Bigint.add !acc (Bigint.mul (Packing.load_num v.lane l) a)) s.na;
  let sc = Rational.add (Rational.make !acc (Bigint.mul (scale v) s.d)) s.b in
  if !Sanitize.enabled then check_sc1 v sc;
  sc

let social_cost2 v =
  let acc = ref Rational.zero in
  for c = 0 to classes v - 1 do
    for l = 0 to links v - 1 do
      if v.assign.(c).(l) > 0 then acc := Rational.max !acc (latency v c l)
    done
  done;
  !acc

(* Re-materialise a class game from the revised state.  Classes whose
   capacity row is untouched keep their original uncertainty backend;
   a revised row is re-wrapped as the matching certain belief (or a
   degenerate interval for [Strict]) — exact, since every decision
   factors through the effective capacities. *)
let to_cgame v =
  if v.nrev = 0 then v.game
  else begin
    let k = classes v in
    let counts = Array.init k (class_count v) in
    let uncertainty =
      Array.init k (fun c ->
        let u = Cgame.uncertainty v.game c in
        let row = v.rows.caps.(c) in
        let original = Cgame.capacity_row v.game c in
        if Array.for_all2 Rational.equal row original then u
        else begin
          let certain = Belief.certain (State.make (Array.copy row)) in
          match Uncertainty.kind u with
          | Uncertainty.Bayesian -> Uncertainty.bayesian certain
          | Uncertainty.Participation ->
            Uncertainty.participation ~presence:(Uncertainty.presence u) certain
          | Uncertainty.Strict ->
            Uncertainty.strict_of_intervals (Array.map (fun q -> (q, q)) row)
        end)
    in
    Cgame.make_uncertain ~counts ~weights:(Array.copy v.rows.weights) ~uncertainty
  end
