(* Differential harness for the class-compressed layer.

   Every class-level quantity must be BIT-IDENTICAL to its per-user
   counterpart through the compress/expand bridge: exact rational
   arithmetic makes re-associated sums canonical, so the class layer is
   not an approximation of the per-user layer but a re-grouping of the
   same computation.  The harness runs tens of thousands of randomized
   games (n ≤ 12) across all belief kinds — KP (shared certain
   capacities), point beliefs (per-user certain rows) and heterogeneous
   beliefs over shared state spaces — and compares:

     - compress/expand round trips (weights, capacity rows, counts),
       and unit-count class games against the per-user tables
     - pure-profile loads, latencies, is_nash, SC1/SC2 (Cview vs Pure)
     - the first-defector best-response step (Cview vs Best_response)
     - maximal improving blocks against single-move simulation and the
       Rational closed form, on both lanes, at exact ties and clamps
     - every lane kernel against a Rational oracle on the exact lane
       (all three backends, rational initial traffic, 2^100 operands)
       and at the packed lane's product-bound edges
     - the per-class defector pass against the per-pair scans it
       replaced, full and restricted, and the packed kernels' zero
       allocation
     - block best-response convergence (Nash at both levels), and the
       integer proportional start against the Rational formula. *)

open Model
open Numeric

let check_q = Alcotest.testable Rational.pp Rational.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Small pools make duplicate (weight, row) classes common, so the
   harness exercises real compression, not just k = n. *)
let random_kp rng ~n ~m =
  Game.kp
    ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)))
    ~capacities:(Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))

let random_point rng ~n ~m =
  (* Point (certain) beliefs drawn from a pool of at most three
     (weight, capacity row) pairs: heavy duplication. *)
  let pool_size = 1 + Prng.Rng.int rng 3 in
  let pool_w = Array.init pool_size (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)) in
  let pool_row =
    Array.init pool_size (fun _ ->
        Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))
  in
  let pick = Array.init n (fun _ -> Prng.Rng.int rng pool_size) in
  Game.of_capacities
    ~weights:(Array.map (fun j -> pool_w.(j)) pick)
    (Array.map (fun j -> Array.copy pool_row.(j)) pick)

let random_heterogeneous rng ~n ~m =
  Experiments.Generators.game rng ~n ~m
    ~weights:(Experiments.Generators.Rational_weights 3)
    ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })

let random_game rng ~kind ~n ~m =
  match kind mod 3 with
  | 0 -> random_kp rng ~n ~m
  | 1 -> random_point rng ~n ~m
  | _ -> random_heterogeneous rng ~n ~m

(* Class-block offsets of the expanded (class-major) layout. *)
let offsets cg =
  let k = Cgame.classes cg in
  let off = Array.make k 0 in
  for c = 1 to k - 1 do
    off.(c) <- off.(c - 1) + Cgame.count cg (c - 1)
  done;
  off

(* ------------------------------------------------------------------ *)
(* compress / expand round trips                                       *)

let check_bridge trial g =
  let n = Game.users g and m = Game.links g in
  let cg, class_of = Cgame.compress g in
  if Cgame.users cg <> n then Alcotest.failf "trial %d: user count drifted" trial;
  if Cgame.classes cg > n then Alcotest.failf "trial %d: more classes than users" trial;
  for i = 0 to n - 1 do
    let c = class_of.(i) in
    Alcotest.check check_q "class weight matches user" (Game.weight g i) (Cgame.weight cg c);
    for l = 0 to m - 1 do
      Alcotest.check check_q "class capacity matches user" (Game.capacity g i l)
        (Cgame.capacity cg c l)
    done
  done;
  (* expand is class-major: every user in class c's block carries class
     c's weight and row. *)
  let ex = Cgame.expand cg in
  if Game.users ex <> n then Alcotest.failf "trial %d: expand changed the user count" trial;
  let off = offsets cg in
  for c = 0 to Cgame.classes cg - 1 do
    for u = off.(c) to off.(c) + Cgame.count cg c - 1 do
      Alcotest.check check_q "expanded weight" (Cgame.weight cg c) (Game.weight ex u);
      for l = 0 to m - 1 do
        Alcotest.check check_q "expanded capacity" (Cgame.capacity cg c l) (Game.capacity ex u l)
      done
    done
  done;
  (* Compressing the expansion reproduces the class game exactly (the
     class-major layout makes first-seen order the class order). *)
  let cg', class_of' = Cgame.compress ex in
  if Cgame.classes cg' <> Cgame.classes cg then
    Alcotest.failf "trial %d: expand/compress changed the class count" trial;
  for c = 0 to Cgame.classes cg - 1 do
    if Cgame.count cg' c <> Cgame.count cg c then
      Alcotest.failf "trial %d: expand/compress changed a class count" trial;
    Alcotest.check check_q "expand/compress weight" (Cgame.weight cg c) (Cgame.weight cg' c)
  done;
  for c = 0 to Cgame.classes cg - 1 do
    for u = off.(c) to off.(c) + Cgame.count cg c - 1 do
      if class_of'.(u) <> c then Alcotest.failf "trial %d: class-major map drifted" trial
    done
  done;
  (* A unit-count class game over the same users is the per-user game:
     same exact tables, same packing. *)
  let unit =
    Cgame.make_uncertain ~counts:(Array.make n 1) ~weights:(Game.weights g)
      ~uncertainty:(Array.init n (Game.uncertainty g))
  in
  let r = Game.rows g and r' = Cgame.rows unit in
  let same_q a a' = Array.for_all2 Rational.equal a a' in
  if
    not
      (same_q r.weights r'.weights && same_q r.contribs r'.contribs && same_q r.biases r'.biases
     && Array.for_all2 same_q r.caps r'.caps)
  then Alcotest.failf "trial %d: unit-count class rows differ from the per-user rows" trial;
  if Cgame.packed_tables unit <> Game.packed_tables g then
    Alcotest.failf "trial %d: unit-count class packing differs from the per-user packing" trial;
  (cg, class_of)

(* ------------------------------------------------------------------ *)
(* Pure layer: Cview vs Pure/View through the bridge                   *)

let check_pure trial g (cg, class_of) p =
  let n = Game.users g and m = Game.links g in
  let x = Cgame.compress_profile cg ~class_of p in
  let v = Cview.of_profile cg x in
  let loads = Pure.loads g p in
  for l = 0 to m - 1 do
    Alcotest.check check_q "link load" loads.(l) (Cview.load v l)
  done;
  for i = 0 to n - 1 do
    Alcotest.check check_q "user latency" (Pure.latency g p i)
      (Cview.latency v class_of.(i) p.(i))
  done;
  if Pure.is_nash g p <> Cview.is_nash v then
    Alcotest.failf "trial %d: is_nash disagrees with Pure" trial;
  Alcotest.check check_q "SC1" (Pure.social_cost1 g p) (Cview.social_cost1 v);
  Alcotest.check check_q "SC2" (Pure.social_cost2 g p) (Cview.social_cost2 v);
  (* The first-defector step: the class move must be exactly the move
     the per-user step makes on the expanded profile. *)
  let ex = Cgame.expand cg in
  let ex_p = Cgame.expand_profile cg x in
  let off = offsets cg in
  (match (Algo.Best_response.step ex ex_p, Cview.first_defector v) with
  | None, None -> ()
  | None, Some _ -> Alcotest.failf "trial %d: phantom class defector" trial
  | Some _, None -> Alcotest.failf "trial %d: class layer missed a defector" trial
  | Some stepped, Some (cls, src, dst) ->
    (* First user of class [cls] on [src]: users within a class are laid
       out link-ascending, so it sits right after the earlier links'
       blocks. *)
    let rank = ref 0 in
    for l = 0 to src - 1 do
      rank := !rank + x.(cls).(l)
    done;
    let u = off.(cls) + !rank in
    let expected = Array.copy ex_p in
    expected.(u) <- dst;
    if stepped <> expected then
      Alcotest.failf "trial %d: step mismatch (class %d, %d→%d, user %d)" trial cls src dst u;
    (* SC1 stays the per-user value across the move and its undo, now
       on the aggregates the query above built. *)
    Cview.move v ~cls ~src ~dst ~count:1;
    Alcotest.check check_q "SC1 after a move" (Pure.social_cost1 ex stepped) (Cview.social_cost1 v);
    Cview.undo v;
    Alcotest.check check_q "SC1 after undo" (Pure.social_cost1 g p) (Cview.social_cost1 v));
  (* Nash agreement must also hold on the expanded pair. *)
  if Pure.is_nash ex ex_p <> Cview.is_nash v then
    Alcotest.failf "trial %d: is_nash disagrees on the expanded profile" trial

let test_pure_differential () =
  let rng = Prng.Rng.create 0xC1A5 in
  for trial = 1 to 10_000 do
    let n = 1 + Prng.Rng.int rng 6 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let bridge = check_bridge trial g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    check_pure trial g bridge p
  done

(* A twelve-user game exercises the issue's n ≤ 12 bound explicitly. *)
let test_twelve_users () =
  let rng = Prng.Rng.create 0x7EA2 in
  for trial = 1 to 200 do
    let n = 12 and m = Prng.Rng.int_in rng 2 4 in
    let g = random_game rng ~kind:trial ~n ~m in
    let bridge = check_bridge trial g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    check_pure trial g bridge p
  done

(* ------------------------------------------------------------------ *)
(* Lane kernels vs a Rational oracle                                   *)

(* The exact-rational formulas the lane kernels evaluate as integer
   cross products, recomputed from the game's rows and a from-scratch
   load fold: load_l = initial_l + Σ_r count(r, l)·contribution_r. *)
type oracle = { rows : Packing.rows; loads : Rational.t array }

let oracle_of (rows : Packing.rows) ~m ?initial count =
  let loads =
    Array.init m (fun l ->
        let acc = ref (match initial with None -> Rational.zero | Some t -> t.(l)) in
        Array.iteri
          (fun r t ->
            let e = count r l in
            if e > 0 then acc := Rational.add !acc (Rational.mul (Rational.of_int e) t))
          rows.contribs;
        !acc)
  in
  { rows; loads }

let cview_oracle v = oracle_of (Cgame.rows (Cview.to_cgame v)) ~m:(Cview.links v) (Cview.assigned v)

let view_oracle g ?initial p =
  oracle_of (Game.rows g) ~m:(Game.links g) ?initial (fun i l -> if p.(i) = l then 1 else 0)

let o_latency o r l = Rational.div (Rational.add o.loads.(l) o.rows.biases.(r)) o.rows.caps.(r).(l)

let o_after o r ~src dst =
  if dst = src then o_latency o r src
  else Rational.div (Rational.add o.loads.(dst) o.rows.weights.(r)) o.rows.caps.(r).(dst)

let o_improves o r ~src dst =
  dst <> src && Rational.compare (o_after o r ~src dst) (o_latency o r src) < 0

let o_best o r ~src =
  let best = ref 0 in
  for l = 1 to Array.length o.loads - 1 do
    if Rational.compare (o_after o r ~src l) (o_after o r ~src !best) < 0 then best := l
  done;
  (!best, o_after o r ~src !best)

let o_defector o r ~src =
  List.exists (o_improves o r ~src) (List.init (Array.length o.loads) Fun.id)

(* The Rational closed form [Cview.max_improving_block] used before the
   integer lane kernel: with Δ the latency gap between [src] and [dst]
   and t the contribution, the j-th mover improves iff j < q for
     q = (Δ + t/c_src) / (t·(1/c_dst + 1/c_src)),
   so the block is ceil(q) − 1, clamped to [0, avail]. *)
let reference_max_block o r ~src ~dst ~avail =
  let t = o.rows.contribs.(r) in
  let cap_s = o.rows.caps.(r).(src) and cap_d = o.rows.caps.(r).(dst) in
  let delta = Rational.sub (o_latency o r src) (o_latency o r dst) in
  let q =
    Rational.div
      (Rational.add delta (Rational.div t cap_s))
      (Rational.mul t (Rational.add (Rational.inv cap_d) (Rational.inv cap_s)))
  in
  if Rational.compare q Rational.one <= 0 then 0
  else if Rational.compare q (Rational.of_int avail) > 0 then avail
  else Bigint.to_int_exn (Rational.num (Rational.sub (Rational.ceil q) Rational.one))

let same_q what a b =
  if not (Rational.equal a b) then
    Alcotest.failf "%s: %s, oracle %s" what (Rational.to_string b) (Rational.to_string a)

(* Every Cview kernel on every (class, source, destination) triple. *)
let check_cview_kernels what v =
  let o = cview_oracle v in
  let m = Cview.links v in
  for c = 0 to Cview.classes v - 1 do
    for src = 0 to m - 1 do
      let at fmt = Printf.sprintf ("%s: class %d on %d: " ^^ fmt) what c src in
      same_q (at "latency") (o_latency o c src) (Cview.latency v c src);
      let bl, blat = Cview.best_response_for v ~cls:c ~src and ol, olat = o_best o c ~src in
      if bl <> ol then Alcotest.failf "%s" (at "best response %d, oracle %d" bl ol);
      same_q (at "best-response latency") olat blat;
      if Cview.is_defector v ~cls:c ~src <> o_defector o c ~src then
        Alcotest.failf "%s" (at "is_defector disagrees");
      for dst = 0 to m - 1 do
        same_q (at "latency after moving to %d" dst) (o_after o c ~src dst)
          (Cview.latency_after_move v ~cls:c ~src dst);
        if Cview.improves v ~cls:c ~src dst <> o_improves o c ~src dst then
          Alcotest.failf "%s" (at "improves %d disagrees" dst);
        if dst <> src then begin
          let t = Cview.max_improving_block v ~cls:c ~src ~dst in
          let r = reference_max_block o c ~src ~dst ~avail:(Cview.assigned v c src) in
          if t <> r then Alcotest.failf "%s" (at "block to %d is %d, closed form %d" dst t r)
        end
      done
    done
  done

(* Every View kernel for every user. *)
let check_view_kernels what g ?initial v p =
  let o = view_oracle g ?initial p in
  let m = Game.links g in
  for i = 0 to Game.users g - 1 do
    let src = p.(i) in
    same_q (Printf.sprintf "%s: latency(%d)" what i) (o_latency o i src) (View.latency v i);
    for l = 0 to m - 1 do
      same_q (Printf.sprintf "%s: latency_on_link(%d, %d)" what i l) (o_after o i ~src l)
        (View.latency_on_link v i l)
    done;
    let bl, blat = View.best_response_for v i and ol, olat = o_best o i ~src in
    if bl <> ol then Alcotest.failf "%s: best_response_for(%d) %d, oracle %d" what i bl ol;
    same_q (Printf.sprintf "%s: best-response latency(%d)" what i) olat blat;
    if View.is_defector v i <> o_defector o i ~src then
      Alcotest.failf "%s: is_defector(%d) disagrees" what i;
    if View.improving_moves v i <> List.filter (o_improves o i ~src) (List.init m Fun.id) then
      Alcotest.failf "%s: improving_moves(%d) disagrees" what i
  done

let two_100 = Bigint.pow (Bigint.of_int 2) 100

(* A cursor at [x] forced onto the exact lane: a reweight by 2^-100
   cannot pack, so it spills, and the reweight back keeps the exact
   lane while restoring every value. *)
let exact_twin g x =
  let v = Cview.of_profile g x in
  let w = Cgame.weight g 0 in
  Cview.revise_weight v ~cls:0 (Rational.add w (Rational.make Bigint.one two_100));
  Cview.revise_weight v ~cls:0 w;
  Cview.clear_history v;
  if Cview.packed v then Alcotest.fail "a 2^-100 reweight did not spill the packed lane";
  v

(* Class games over all three uncertainty backends: Bayesian (which
   may pack), Participation (bias ≠ 0, never packs) and Strict. *)
let random_backend_cgame rng ~k ~m =
  let q = Rational.of_ints in
  let counts = Array.init k (fun _ -> 1 + Prng.Rng.int rng 4) in
  let weights = Array.init k (fun _ -> q (1 + Prng.Rng.int rng 6) (1 + Prng.Rng.int rng 3)) in
  let row () = Array.init m (fun _ -> q (1 + Prng.Rng.int rng 8) (1 + Prng.Rng.int rng 3)) in
  let uncertainty =
    Array.init k (fun _ ->
        match Prng.Rng.int rng 3 with
        | 0 -> Uncertainty.bayesian (Belief.certain (State.make (row ())))
        | 1 ->
          Uncertainty.participation
            ~presence:(q (1 + Prng.Rng.int rng 4) 5)
            (Belief.certain (State.make (row ())))
        | _ ->
          Uncertainty.strict_of_intervals
            (Array.map (fun lo -> (lo, Rational.add lo (q 1 2))) (row ())))
  in
  (counts, weights, uncertainty)

let random_profile rng counts m =
  Array.map
    (fun n ->
      let row = Array.make m 0 in
      for _ = 1 to n do
        let l = Prng.Rng.int rng m in
        row.(l) <- row.(l) + 1
      done;
      row)
    counts

(* Minor words allocated by [calls] runs of [f], with the sanitizer
   disarmed: armed, every admitted exact-lane kernel is re-derived on
   Bigints. *)
let minor_words ?(calls = 1_000) f =
  let armed = !Sanitize.enabled in
  Sanitize.enabled := false;
  Fun.protect
    ~finally:(fun () -> Sanitize.enabled := armed)
    (fun () ->
      let before = Gc.minor_words () in
      for i = 1 to calls do
        f i
      done;
      Gc.minor_words () -. before)

let empty_words () = minor_words (fun i -> ignore (Sys.opaque_identity i))

(* [f ()] with the sanitizer armed, whatever the environment says. *)
let armed f =
  let was = !Sanitize.enabled in
  Sanitize.enabled := true;
  Fun.protect ~finally:(fun () -> Sanitize.enabled := was) f

(* [native v cls] holds when class [cls]'s best link and block on [v]
   (from its first occupied link) box nothing, i.e. the row runs on the
   exact lane's native image; otherwise they box at least a word per
   call on the Bigint kernels. *)
let native v ~cls =
  let m = Cview.links v in
  let src = ref 0 in
  while Cview.assigned v cls !src = 0 do
    incr src
  done;
  let src = !src in
  let words =
    minor_words (fun _ ->
        ignore (Sys.opaque_identity (Cview.best_link v ~cls ~src));
        ignore (Sys.opaque_identity (Cview.max_improving_block v ~cls ~src ~dst:((src + 1) mod m))))
  and empty = empty_words () in
  if words <> empty && words -. empty < 1_000. then
    Alcotest.failf "class %d's kernels allocated %.0f words over 1000 calls: neither lane" cls
      (words -. empty);
  words = empty

(* ------------------------------------------------------------------ *)
(* Maximal improving blocks vs single-move simulation                  *)

(* Check one block on [v]: it matches the Rational closed form, each of
   its movers improves in turn on the live state and the next one does
   not, and the undos restore the loads.  Returns the block. *)
let check_block what v ~cls ~src ~dst =
  let t = Cview.max_improving_block v ~cls ~src ~dst in
  let avail = Cview.assigned v cls src in
  let r = reference_max_block (cview_oracle v) cls ~src ~dst ~avail in
  if t <> r then Alcotest.failf "%s: block %d, closed form %d" what t r;
  if t > avail then Alcotest.failf "%s: block exceeds available users" what;
  let loads = Cview.loads v in
  let improves () =
    Rational.compare (Cview.latency_after_move v ~cls ~src dst) (Cview.latency v cls src) < 0
  in
  for j = 1 to t do
    if not (improves ()) then Alcotest.failf "%s: mover %d of %d does not improve" what j t;
    Cview.move v ~cls ~src ~dst ~count:1
  done;
  if avail > t && improves () then
    Alcotest.failf "%s: block %d is not maximal (%d available)" what t avail;
  for _ = 1 to t do
    Cview.undo v
  done;
  Alcotest.(check (array check_q)) "undo restores loads" loads (Cview.loads v);
  t

(* Random instances, each on the cursor's own lane and on its exact
   twin. *)
let test_max_improving_block () =
  let rng = Prng.Rng.create 0xB10C in
  let packed = ref 0 in
  for trial = 1 to 2_000 do
    let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let x = Cgame.compress_profile cg ~class_of p in
    let v = Cview.of_profile cg x in
    if Cview.packed v then incr packed;
    let cls = Prng.Rng.int rng (Cgame.classes cg) in
    let src = Prng.Rng.int rng m in
    let dst = (src + 1 + Prng.Rng.int rng (m - 1)) mod m in
    let what = Printf.sprintf "trial %d" trial in
    let t = check_block what v ~cls ~src ~dst in
    let tx = check_block (what ^ " (exact lane)") (exact_twin cg x) ~cls ~src ~dst in
    if t <> tx then Alcotest.failf "%s: the lanes disagree on the block (%d vs %d)" what t tx
  done;
  if !packed < 500 then Alcotest.failf "only %d of 2000 trials ran on the packed lane" !packed

(* Exact ties.  Two links with capacities s·f and d·f and one weight w:
   with x users of weight w on [src] and y on [dst], the j-th mover
   improves iff (y + j)·s < (x − j + 1)·d.  Taking y + n + 1 = d·j0 and
   x − n = s·j0 makes the (n+1)-th mover tie exactly (D is n times
   T·(a + b)), so the block is n — the tying mover stays — clamped to
   the [avail] users of the moving class.  Class 1 shares the weight
   and row; it fills [src] up to x and parks one user on a third link. *)
let test_block_ties_and_clamps () =
  let rng = Prng.Rng.create 0x71E5 in
  for trial = 1 to 400 do
    let s = 1 + Prng.Rng.int rng 5 and d = 1 + Prng.Rng.int rng 5 in
    let j0 = 2 + Prng.Rng.int rng 3 in
    let n = 1 + Prng.Rng.int rng ((d * j0) - 1) in
    let y = (d * j0) - 1 - n and x = n + (s * j0) in
    let avail =
      match Prng.Rng.int rng 4 with 0 -> x | 1 -> max 1 (n - 1) | 2 -> n | _ -> min x (n + 1)
    in
    let f = Rational.of_ints (1 + Prng.Rng.int rng 4) (1 + Prng.Rng.int rng 3) in
    let w = Rational.of_ints (1 + Prng.Rng.int rng 5) (1 + Prng.Rng.int rng 4) in
    let caps =
      [| Rational.mul (Rational.of_int s) f; Rational.mul (Rational.of_int d) f;
         Rational.of_ints (1 + Prng.Rng.int rng 9) 2 |]
    in
    let x0 = [| [| avail; y; 0 |]; [| x - avail; 0; 1 |] |] in
    let g =
      Cgame.kp
        ~counts:(Array.map (Array.fold_left ( + ) 0) x0)
        ~weights:[| w; w |] ~capacities:caps
    in
    let what = Printf.sprintf "tie trial %d (n = %d, avail = %d)" trial n avail in
    List.iter
      (fun v ->
        let t = check_block what v ~cls:0 ~src:0 ~dst:1 in
        if t <> min avail n then Alcotest.failf "%s: block %d, expected %d" what t (min avail n);
        if avail > n then begin
          (* The (n+1)-th mover ties exactly: it stays, and the block
             is not maximal by a strict margin. *)
          Cview.move v ~cls:0 ~src:0 ~dst:1 ~count:n;
          same_q (what ^ ": tying mover") (Cview.latency v 0 0)
            (Cview.latency_after_move v ~cls:0 ~src:0 1);
          Cview.undo v
        end)
      [ Cview.of_profile g x0; exact_twin g x0 ]
  done;
  (* A destination so fast that every available user moves. *)
  let g =
    Cgame.kp ~counts:[| 7 |] ~weights:[| Rational.of_ints 3 2 |]
      ~capacities:[| Rational.one; Rational.of_int 1000 |]
  in
  let x = [| [| 7; 0 |] |] in
  List.iter
    (fun v ->
      Alcotest.(check int) "every user moves" 7 (check_block "clamp" v ~cls:0 ~src:0 ~dst:1))
    [ Cview.of_profile g x; exact_twin g x ]

(* Every kernel on exact-lane cursors against the Rational oracle:
   class games over all three backends, on the cursor's own lane, on
   its exact twin, scaled by 2^100 (Big operands throughout) and after
   random structural deltas that rescale the exact lane; per-user
   views over the same backends with rational initial traffic. *)
let test_exact_lane_kernels () =
  let rng = Prng.Rng.create 0xE8AC in
  let big = Rational.of_bigint two_100 in
  for trial = 1 to 300 do
    let k = 1 + Prng.Rng.int rng 3 and m = Prng.Rng.int_in rng 2 3 in
    let counts, weights, uncertainty = random_backend_cgame rng ~k ~m in
    let g = Cgame.make_uncertain ~counts ~weights ~uncertainty in
    let x = random_profile rng counts m in
    let what = Printf.sprintf "trial %d" trial in
    check_cview_kernels what (Cview.of_profile g x);
    let vx = exact_twin g x in
    check_cview_kernels (what ^ " (exact twin)") vx;
    let gb =
      Cgame.make_uncertain ~counts ~weights:(Array.map (Rational.mul big) weights) ~uncertainty
    in
    let vb = Cview.of_profile gb x in
    if Cview.packed vb then Alcotest.failf "%s: 2^100-scaled game packed anyway" what;
    check_cview_kernels (what ^ " (2^100)") vb;
    for step = 1 to 4 do
      let c = Prng.Rng.int rng k in
      (match Prng.Rng.int rng 3 with
       | 0 ->
         Cview.revise_weight vx ~cls:c
           (Rational.of_ints (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 7))
       | 1 ->
         Cview.revise_capacity vx ~cls:c ~link:(Prng.Rng.int rng m)
           (Rational.of_ints (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 5))
       | _ ->
         Cview.revise_count vx ~cls:c ~link:(Prng.Rng.int rng m) ~delta:(1 + Prng.Rng.int rng 3));
      check_cview_kernels (Printf.sprintf "%s (exact twin, delta %d)" what step) vx
    done;
    (* Per-user views, with and without rational initial traffic. *)
    let n = Array.fold_left ( + ) 0 counts in
    let ug =
      Game.make_uncertain
        ~weights:(Array.init n (fun i -> weights.(i mod k)))
        ~uncertainty:(Array.init n (fun i -> uncertainty.(i mod k)))
    in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let initial =
      Array.init m (fun _ -> Rational.of_ints (Prng.Rng.int rng 5) (1 + Prng.Rng.int rng 6))
    in
    check_view_kernels what ug (View.of_profile ug p) p;
    check_view_kernels (what ^ " (initial)") ug ~initial (View.of_profile ug ~initial p) p;
    let ub =
      Game.make_uncertain
        ~weights:(Array.init n (fun i -> Rational.mul big weights.(i mod k)))
        ~uncertainty:(Array.init n (fun i -> uncertainty.(i mod k)))
    in
    let vb = View.of_profile ub ~initial p in
    if View.packed vb then Alcotest.failf "%s: 2^100-scaled view packed anyway" what;
    check_view_kernels (what ^ " (2^100, initial)") ub ~initial vb p
  done

(* The packed lane's edges.  With integer capacities up to 2^31 the
   product bound 2·total·maxcd·maxcn <= max_int admits a total traffic
   of 2^30 − 1 and refuses 2^30, so the kernels run right at the top of
   the native range.  On both sides the cursor's own lane and its exact
   twin agree with the oracle, and one repair batch — a capacity cut
   plus an arrival, which pushes the under-bound instance over and
   spills it mid-batch — ends with the same outcome and profile. *)
let test_product_bound_edges () =
  let cap = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 31) in
  let r = Rational.of_int in
  List.iter
    (fun (total, packs) ->
      let heavy = (1 lsl 28) + 3 in
      let counts = [| 5; heavy; total - 5 - (2 * heavy) |] in
      let g =
        Cgame.of_capacities ~counts
          ~weights:[| Rational.one; r 2; Rational.one |]
          [| [| cap; r 3; r 7 |]; [| cap; r 5; Rational.one |]; [| r 2; cap; r 9 |] |]
      in
      let what = Printf.sprintf "total %d" total in
      let o = Algo.Cbr.converge g (Algo.Cbr.proportional_start g) in
      if not o.converged then Alcotest.failf "%s: the initial solve did not converge" what;
      let v = Cview.of_profile g o.profile and vx = exact_twin g o.profile in
      if Cview.packed v <> packs then Alcotest.failf "%s: packed is %b" what (Cview.packed v);
      check_cview_kernels what v;
      check_cview_kernels (what ^ " (exact twin)") vx;
      let batch =
        Serve.Mutation.
          [ Revise_capacity { cls = 1; link = 0; cap = r 3 };
            Arrive { cls = 2; link = 1; count = 1 } ]
      in
      let out = Serve.Repair.repair_batch v batch and outx = Serve.Repair.repair_batch vx batch in
      if Cview.packed v then Alcotest.failf "%s: the arrival did not spill the lane" what;
      if out <> outx then Alcotest.failf "%s: the lanes' repair outcomes differ" what;
      if not out.nash then Alcotest.failf "%s: the repair did not reach an equilibrium" what;
      if out.moves = 0 then Alcotest.failf "%s: the batch needed no repair" what;
      if Cview.profile v <> Cview.profile vx then
        Alcotest.failf "%s: the lanes' repaired profiles differ" what;
      check_cview_kernels (what ^ " after repair") v)
    [ ((1 lsl 30) - 1, true); (1 lsl 30, false) ]

(* The packed bound's first factor, 2·total, overflowing on its own:
   one class of unit-weight users on unit capacities packs up to
   2^61 - 1 users (2·total = max_int - 1) and no further, even though
   every total here is itself a native int. *)
let test_product_bound_total_overflow () =
  List.iter
    (fun (users, packs) ->
      let g =
        Cgame.of_capacities ~counts:[| users |] ~weights:[| Rational.one |]
          [| [| Rational.one; Rational.one |] |]
      in
      let v = Cview.of_profile g [| [| users; 0 |] |] in
      if Cview.packed v <> packs then
        Alcotest.failf "%d users: packed is %b" users (Cview.packed v))
    [ ((1 lsl 61) - 1, true); (1 lsl 61, false); ((1 lsl 61) + 1, false) ]

(* ------------------------------------------------------------------ *)
(* The per-class defector pass vs the per-pair scans                   *)

(* The per-pair scans the pass replaced, kept as references.
   [reference_pair] is [Cview]'s class-then-link loop over
   [is_defector]; [reference_candidate] is [Serve.Repair]'s restricted
   loop, in which a clean class's untouched source only probes the
   moves into touched links; [reference_source] is one class of it
   ([only = None] for a dirty class). *)
let reference_pair v =
  let k = Cview.classes v and m = Cview.links v in
  let rec over_links c l =
    if l >= m then over_classes (c + 1)
    else if Cview.assigned v c l > 0 && Cview.is_defector v ~cls:c ~src:l then Some (c, l)
    else over_links c (l + 1)
  and over_classes c = if c >= k then None else over_links c 0 in
  over_classes 0

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

let reference_source v ~cls only =
  let m = Cview.links v in
  let defects s =
    match only with
    | Some touched when not touched.(s) ->
      List.exists (fun l -> touched.(l) && Cview.improves v ~cls ~src:s l) (List.init m Fun.id)
    | _ -> Cview.is_defector v ~cls ~src:s
  in
  List.find_opt (fun s -> Cview.assigned v cls s > 0 && defects s) (List.init m Fun.id)

(* [reference_candidate] through the pass: the loop [Serve.Repair] runs. *)
let pass_candidate v touched dirty =
  let k = Cview.classes v in
  let rec from c =
    if c >= k then None
    else
      let only = if dirty.(c) then None else Some touched in
      match Cview.first_defecting_source ?only v ~cls:c with
      | Some s -> Some (c, s)
      | None -> from (c + 1)
  in
  from 0

let show_pair = function None -> "none" | Some (c, s) -> Printf.sprintf "(%d, %d)" c s
let show_source = function None -> "none" | Some s -> string_of_int s

(* Every scan the pass serves against its reference on [v]: the full
   scan behind [first_defector]/[is_nash], each class under the empty,
   the full and [masks] random touched masks, and the repair loop
   under random touched masks and dirty flags. *)
let check_pass what rng v ~masks =
  let k = Cview.classes v and m = Cview.links v in
  let want = reference_pair v in
  let expected = Option.map (fun (c, s) -> (c, s, fst (Cview.best_response_for v ~cls:c ~src:s))) want in
  if Cview.first_defector v <> expected then
    Alcotest.failf "%s: first_defector differs from the per-pair scan %s" what (show_pair want);
  if Cview.is_nash v <> Option.is_none want then Alcotest.failf "%s: is_nash differs" what;
  let random_mask () = Array.init m (fun _ -> Prng.Rng.int rng 2 = 0) in
  let fixed = [ None; Some (Array.make m false); Some (Array.make m true) ] in
  let drawn = List.init masks (fun _ -> Some (random_mask ())) in
  for cls = 0 to k - 1 do
    List.iter
      (fun only ->
        let got = Cview.first_defecting_source ?only v ~cls and want = reference_source v ~cls only in
        if got <> want then
          Alcotest.failf "%s: class %d: the pass found %s, the per-pair scan %s" what cls
            (show_source got) (show_source want))
      (fixed @ drawn)
  done;
  for _ = 1 to masks do
    let touched = random_mask () and dirty = Array.init k (fun _ -> Prng.Rng.int rng 3 = 0) in
    let got = pass_candidate v touched dirty and want = reference_candidate v touched dirty in
    if got <> want then
      Alcotest.failf "%s: the restricted scan found %s, the per-pair scan %s" what (show_pair got)
        (show_pair want)
  done

(* [g] with one more class that carries a Big magnitude, at a random
   profile: class 0's row and a weight 2^100 times class 0's (the links
   it occupies hold Big loads, so no row runs natively), the same as a
   Participation class of presence 2^-100 (its weight and bias are Big
   but its contribution is class 0's, so only its own row is refused),
   or class 0's weight and its row with the first capacity 2^100 times
   larger (a Big numerator: again only that row is refused).  Every
   kernel and pass agrees with the oracle and the per-pair scans, and
   allocation shows which rows ran on the native image. *)
let check_mixed what rng g =
  let k = Cgame.classes g and m = Cgame.links g in
  let big = Rational.of_bigint two_100 in
  let w0 = Cgame.weight g 0 and row0 = Cgame.capacity_row g 0 in
  let certain row = Belief.certain (State.make row) in
  let kind = Prng.Rng.int rng 3 in
  let weight, u =
    match kind with
    | 0 -> (Rational.mul big w0, Uncertainty.bayesian (certain row0))
    | 1 ->
      (Rational.mul big w0, Uncertainty.participation ~presence:(Rational.inv big) (certain row0))
    | _ ->
      ( w0,
        Uncertainty.bayesian
          (certain (Array.mapi (fun l c -> if l = 0 then Rational.mul big c else c) row0)) )
  in
  let counts = Array.append (Array.init k (Cgame.count g)) [| 1 + Prng.Rng.int rng 3 |] in
  let gm =
    Cgame.make_uncertain ~counts
      ~weights:(Array.append (Array.init k (Cgame.weight g)) [| weight |])
      ~uncertainty:(Array.append (Array.init k (Cgame.uncertainty g)) [| u |])
  in
  let v = Cview.of_profile gm (random_profile rng counts m) in
  let what = Printf.sprintf "%s (mixed, kind %d)" what kind in
  check_cview_kernels what v;
  check_pass what rng v ~masks:2;
  if native v ~cls:k then Alcotest.failf "%s: the Big class ran natively" what;
  for c = 0 to k - 1 do
    if native v ~cls:c <> (kind > 0) then
      Alcotest.failf "%s: class %d ran %s" what c (if kind > 0 then "on Bigints" else "natively")
  done

(* Class games over all three backends at random profiles (mostly
   non-equilibria), on the cursor's own lane and on its exact twin,
   compressed per-user games over all three belief kinds, and every
   fifth game with a class of Big magnitude added. *)
let test_pass_vs_pair_scan () =
  let rng = Prng.Rng.create 0xDEF5 in
  let packed = ref 0 in
  for trial = 1 to 1_500 do
    let what = Printf.sprintf "trial %d" trial in
    let k = 1 + Prng.Rng.int rng 4 and m = Prng.Rng.int_in rng 2 5 in
    let counts, weights, uncertainty = random_backend_cgame rng ~k ~m in
    let g = Cgame.make_uncertain ~counts ~weights ~uncertainty in
    let x = random_profile rng counts m in
    let v = Cview.of_profile g x in
    if Cview.packed v then incr packed;
    check_pass what rng v ~masks:4;
    check_pass (what ^ " (exact twin)") rng (exact_twin g x) ~masks:4;
    let n = 1 + Prng.Rng.int rng 8 in
    let pg = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress pg in
    let cx = Cgame.compress_profile cg ~class_of (Array.init n (fun _ -> Prng.Rng.int rng m)) in
    let cv = Cview.of_profile cg cx in
    if Cview.packed cv then incr packed;
    check_pass (what ^ " (compressed)") rng cv ~masks:4;
    check_pass (what ^ " (compressed, exact twin)") rng (exact_twin cg cx) ~masks:4;
    if trial mod 5 = 0 then check_mixed what rng g
  done;
  if !packed < 1_000 then Alcotest.failf "only %d of 3000 cursors ran on the packed lane" !packed

(* Hand-made cases with known answers, each on the cursor's own lane
   and on its exact twin: [first_defecting_source] for every mask given
   (None for a full scan), next to the per-pair reference. *)
let test_pass_edge_cases () =
  let r = Rational.of_int in
  let case what g x expected =
    List.iter
      (fun (lane, v) ->
        List.iter
          (fun (only, want) ->
            let got = Cview.first_defecting_source ?only v ~cls:0 in
            let mask =
              match only with
              | None -> "full"
              | Some t -> String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") t))
            in
            if got <> want then
              Alcotest.failf "%s (%s, mask %s): found %s, expected %s" what lane mask
                (show_source got) (show_source want);
            if reference_source v ~cls:0 only <> want then
              Alcotest.failf "%s (%s, mask %s): the per-pair scan disagrees" what lane mask)
          expected)
      [ ("own lane", Cview.of_profile g x); ("exact twin", exact_twin g x) ]
  in
  let one_class ~w caps x = Cgame.of_capacities ~counts:[| Array.fold_left ( + ) 0 x |] ~weights:[| w |] [| caps |] in
  (* m = 2, loads (2, 1): the move from link 0 ties at 2, and a tie
     does not improve. *)
  let g = one_class ~w:Rational.one [| r 1; r 1 |] [| 2; 1 |] in
  case "m = 2, own latency ties the cheapest deviation" g [| [| 2; 1 |] |] [ (None, None) ];
  (* Loads (3, 1, 1): links 1 and 2 tie for the cheapest deviation (2),
     below link 0's own latency 3. *)
  let x = [| [| 3; 1; 1 |] |] in
  let g = one_class ~w:Rational.one [| r 1; r 1; r 1 |] x.(0) in
  case "two links tie for the cheapest deviation" g x
    [ (None, Some 0); (Some [| false; false; true |], Some 0); (Some [| false; true; false |], Some 0);
      (Some [| true; false; false |], Some 0); (Some [| false; false; false |], None) ];
  (* Capacities (4, 1), loads (2, 1): link 0 holds the cheapest
     deviation (3/4); its own users (latency 1/2) must not count it,
     and link 1's user (latency 1) moves there. *)
  let x = [| [| 2; 1 |] |] in
  let g = one_class ~w:Rational.one [| r 4; r 1 |] x.(0) in
  case "the source holds the cheapest deviation" g x
    [ (None, Some 1); (Some [| true; false |], Some 1); (Some [| false; true |], Some 1);
      (Some [| false; false |], None) ];
  (* One occupied link: every user on link 0 of three. *)
  let x = [| [| 3; 0; 0 |] |] in
  let g = one_class ~w:Rational.one [| r 1; r 1; r 1 |] x.(0) in
  case "a single occupied link, defecting" g x
    [ (None, Some 0); (Some [| false; false; false |], None); (Some [| true; true; true |], Some 0);
      (Some [| false; false; true |], Some 0); (Some [| true; false; false |], Some 0) ];
  let g = one_class ~w:Rational.one [| r 10; r 1; r 1 |] x.(0) in
  case "a single occupied link, at equilibrium" g x
    [ (None, None); (Some [| true; true; true |], None); (Some [| false; true; true |], None) ];
  (* Capacities (1, 1, 8), loads (4, 1, 0): link 0's users gain only by
     moving to link 2 (1/8); a mask without link 2 hides that move from
     an untouched source, but not from a touched one. *)
  let x = [| [| 4; 1; 0 |] |] in
  let g = one_class ~w:Rational.one [| r 1; r 1; r 8 |] x.(0) in
  case "the cheapest deviation lies outside the mask" g x
    [ (None, Some 0); (Some [| false; true; false |], Some 0); (Some [| true; true; false |], Some 0);
      (Some [| false; false; true |], Some 0); (Some [| false; false; false |], None) ];
  (* Capacities (1, 2, 8), loads (1, 4, 8): link 1's users (latency 2)
     gain only by moving to link 2 (9/8) — moving to link 0 ties at
     2 — and no other source defects. *)
  let x = [| [| 1; 4; 8 |] |] in
  let g = one_class ~w:Rational.one [| r 1; r 2; r 8 |] x.(0) in
  case "a clean source sees only the masked links" g x
    [ (None, Some 1); (Some [| true; false; false |], None); (Some [| false; true; false |], Some 1);
      (Some [| false; false; true |], Some 1); (Some [| true; false; true |], Some 1) ];
  (* Participation, presence 1/2, weight 2: contribution 1 and bias 1.
     Loads (3, 1): link 0's own latency is 3 + 1 = 4 against 1 + 2 = 3
     on link 1 — the bias decides, since without it the move would tie.
     Link 1's own latency 2 against 5 on link 0 stays. *)
  let part presence caps =
    Uncertainty.participation ~presence (Belief.certain (State.make caps))
  in
  let g =
    Cgame.make_uncertain ~counts:[| 4 |] ~weights:[| r 2 |]
      ~uncertainty:[| part (Rational.of_ints 1 2) [| r 1; r 1 |] |]
  in
  case "participation bias decides" g [| [| 3; 1 |] |]
    [ (None, Some 0); (Some [| false; true |], Some 0); (Some [| true; false |], Some 0);
      (Some [| false; false |], None) ];
  (* Loads (2, 1) with the same bias: 3 against 3, a tie. *)
  let g =
    Cgame.make_uncertain ~counts:[| 3 |] ~weights:[| r 2 |]
      ~uncertainty:[| part (Rational.of_ints 1 2) [| r 1; r 1 |] |]
  in
  case "participation tie" g [| [| 2; 1 |] |] [ (None, None); (Some [| true; true |], None) ]

(* The packed kernels allocate nothing: a [Gc.minor_words] delta over
   10k calls of each equals the delta of an empty loop, with and
   without a mask, on a packed lane at a non-equilibrium profile (so
   the passes find defectors as well as run through). *)
let test_packed_kernels_allocate_nothing () =
  let r = Rational.of_int in
  let counts = [| 5; 7; 3 |] and m = 4 in
  let g =
    Cgame.of_capacities ~counts
      ~weights:[| r 1; r 2; Rational.of_ints 3 2 |]
      [| [| r 1; r 2; r 3; r 4 |]; [| r 4; r 1; r 1; r 2 |]; [| r 2; r 2; r 5; r 1 |] |]
  in
  let x = [| [| 5; 0; 0; 0 |]; [| 0; 3; 4; 0 |]; [| 1; 1; 0; 1 |] |] in
  let rows = Cgame.rows g in
  let lane = Packing.make_lane (Cgame.packed_tables g) rows m in
  Array.iteri (fun c row -> Array.iteri (fun l e -> Packing.add_count lane c ~link:l ~delta:e) row) x;
  if not (Packing.is_packed lane) then Alcotest.fail "the instance did not pack";
  let k = Array.length counts and calls = 10_000 in
  let mask = Some [| true; false; false; true |] in
  let hits = ref 0 in
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to calls do
      f i
    done;
    Gc.minor_words () -. before
  in
  let empty = words (fun i -> hits := !hits + (i land 0)) in
  let check name f =
    let w = words f in
    if w <> empty then Alcotest.failf "%s allocated %.0f minor words over %d calls" name (w -. empty) calls
  in
  check "is_defector" (fun i ->
      if Packing.is_defector lane rows (i mod k) ~src:(i mod m) then incr hits);
  check "improves" (fun i ->
      if Packing.improves lane rows (i mod k) ~src:(i mod m) (i / k mod m) then incr hits);
  check "max_block" (fun i ->
      let src = i mod m in
      let dst = (src + 1 + (i / m mod (m - 1))) mod m in
      hits := !hits + Packing.max_block lane rows (i mod k) ~src ~dst ~avail:x.(i mod k).(src));
  check "best_link" (fun i -> hits := !hits + Packing.best_link lane rows (i mod k) ~src:(i mod m));
  check "first_defecting_source" (fun i ->
      hits := !hits + Packing.first_defecting_source lane rows (i mod k) x.(i mod k));
  check "first_defecting_source ~only" (fun i ->
      hits := !hits + Packing.first_defecting_source ?only:mask lane rows (i mod k) x.(i mod k));
  if !hits = 0 then Alcotest.fail "no kernel found a defector";
  (* The cursor's scan and move paths, at an equilibrium, on the packed
     lane and on an exact twin whose rows all run natively: [is_nash]
     and a move with its undo, every class in turn, allocate nothing
     (sanitizer disarmed, as the exact lane's armed checks box). *)
  let o = Algo.Cbr.converge g x in
  if not o.converged then Alcotest.fail "the instance did not converge";
  let empty = empty_words () in
  List.iter
    (fun (lane, v) ->
      if not (Cview.is_nash v) then Alcotest.failf "%s: not at equilibrium" lane;
      for cls = 0 to k - 1 do
        if not (native v ~cls) then Alcotest.failf "%s: class %d boxed" lane cls
      done;
      let src =
        Array.init k (fun cls ->
            let l = ref 0 in
            while Cview.assigned v cls !l = 0 do
              incr l
            done;
            !l)
      in
      let zero name f =
        let w = minor_words f in
        if w <> empty then Alcotest.failf "%s: %s allocated %.0f minor words" lane name (w -. empty)
      in
      zero "is_nash" (fun _ -> if not (Cview.is_nash v) then incr hits);
      zero "move + undo" (fun i ->
          let cls = i mod k in
          Cview.move v ~cls ~src:src.(cls) ~dst:((src.(cls) + 1) mod m) ~count:1;
          Cview.undo v);
      if Cview.profile v <> o.profile then Alcotest.failf "%s: move + undo moved users" lane)
    [ ("packed", Cview.of_profile g o.profile); ("exact", exact_twin g o.profile) ]

(* The exact lane's admission at its bound, observed by allocation as
   [test_load_dist]'s lane admission is.  One class of weight 1 on two
   links with every user on link 0, so (max L + W)·maxcd·maxcn is
   3·715827883·2147483647 = 2^62 − 1 = max_int with capacities
   (2147483647, 1/715827883) and loads (2, 0), and 4·2^30·2^30 = 2^62
   with (2^30, 1/2^30) and loads (3, 0); then the same with one huge
   denominator, 3·(2^62 − 1)/3 against 4·2^60.  None of them packs
   (the packed bound doubles the total), each agrees with the Rational
   oracle, and only the rows at max_int run natively: best link, block
   and the defector pass (at an equilibrium, so it returns [None]).  A
   Participation view (bias B > 0, never packed) runs natively too. *)
let test_exact_admission_bounds () =
  let r = Rational.of_int and q = Rational.of_ints in
  let view what caps n =
    let g = Cgame.of_capacities ~counts:[| n |] ~weights:[| Rational.one |] [| caps |] in
    let v = Cview.of_profile g [| [| n; 0 |] |] in
    if Cview.packed v then Alcotest.failf "%s: the instance packed" what;
    check_cview_kernels what v;
    if Cview.first_defecting_source v ~cls:0 <> None then
      Alcotest.failf "%s: not at equilibrium" what;
    v
  in
  let empty = empty_words () in
  let pass v =
    minor_words (fun _ -> ignore (Sys.opaque_identity (Cview.first_defecting_source v ~cls:0)))
  in
  List.iter
    (fun (name, inside, outside) ->
      let inside = view (name ^ " at max_int") inside 2
      and outside = view (name ^ " past max_int") outside 3 in
      if not (native inside ~cls:0) then Alcotest.failf "%s: the kernels boxed at max_int" name;
      if native outside ~cls:0 then Alcotest.failf "%s: the kernels ran natively past max_int" name;
      if pass inside <> empty then Alcotest.failf "%s: the pass boxed at max_int" name;
      if pass outside -. empty < 1_000. then
        Alcotest.failf "%s: the pass ran natively past max_int" name)
    [
      ("large cn", [| r 2147483647; q 1 715827883 |], [| r (1 lsl 30); q 1 (1 lsl 30) |]);
      ("large cd", [| Rational.one; q 1 (max_int / 3) |], [| Rational.one; q 1 (1 lsl 60) |]);
    ];
  (* Participation, presence 1/2, weight 2: contribution 1 and bias 1,
     so the bias decides (see [test_pass_edge_cases]). *)
  let g =
    Cgame.make_uncertain ~counts:[| 4; 2 |] ~weights:[| r 2; r 3 |]
      ~uncertainty:
        (Array.map
           (fun caps ->
             Uncertainty.participation ~presence:(q 1 2) (Belief.certain (State.make caps)))
           [| [| r 1; r 1 |]; [| r 2; r 1 |] |])
  in
  let v = Cview.of_profile g [| [| 3; 1 |]; [| 1; 1 |] |] in
  if Cview.packed v then Alcotest.fail "a Participation view packed";
  check_cview_kernels "participation" v;
  if not (native v ~cls:0 && native v ~cls:1) then
    Alcotest.fail "a Participation view's kernels boxed"

(* Spilled cursors against twins scaled by 2^70.  Reweights with
   denominators 3..7 spill the packed lane of a small game, whose rows
   then run on the native image; so do capacity revisions, a third of
   them to a Big capacity (a row the image must then refuse).  Scaling
   every weight and reweight by 2^70 changes no predicate, but puts
   every weight and load past max_int, so the twin runs the Bigint
   kernels throughout.  Every kernel must agree on every row, after the
   deltas and after one repair batch, which must end in the same
   outcome and profile; so must fresh cursors over both games, whose
   shared tables no delta may reach. *)
let test_native_image_vs_big_twin () =
  let rng = Prng.Rng.create 0x2070 in
  let big = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 70) in
  let spilled = ref 0 and repaired = ref 0 in
  let same = ref 0 and changed = ref 0 and wide = ref 0 in
  for trial = 1 to 300 do
    let what = Printf.sprintf "trial %d" trial in
    let k = 1 + Prng.Rng.int rng 4 and m = Prng.Rng.int_in rng 2 5 in
    let counts, weights, uncertainty = random_backend_cgame rng ~k ~m in
    let x = random_profile rng counts m in
    let g = Cgame.make_uncertain ~counts ~weights ~uncertainty
    and gb =
      Cgame.make_uncertain ~counts ~weights:(Array.map (Rational.mul big) weights) ~uncertainty
    in
    let v = Cview.of_profile g x and vb = Cview.of_profile gb x in
    let reweight cls w =
      ( Serve.Mutation.Reweight { cls; weight = w },
        Serve.Mutation.Reweight { cls; weight = Rational.mul big w } )
    in
    let delta () =
      let cls = Prng.Rng.int rng k in
      match Prng.Rng.int rng 3 with
      | 0 ->
        let link = Prng.Rng.int rng m
        and cap = Rational.of_ints (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 5) in
        let cap =
          if Prng.Rng.int rng 3 = 0 then Rational.mul (Rational.of_bigint two_100) cap else cap
        in
        let mu = Serve.Mutation.Revise_capacity { cls; link; cap } in
        (mu, mu)
      | _ -> reweight cls (Rational.of_ints (1 + Prng.Rng.int rng 12) (3 + Prng.Rng.int rng 5))
    in
    (* Apply a delta to both cursors, counting the reweights of an
       exact-lane [v] that keep its scale and those that change it. *)
    let apply (mu, mub) =
      let exact = not (Cview.packed v) and before = Cview.scale v in
      Serve.Mutation.apply v mu;
      Serve.Mutation.apply vb mub;
      match mu with
      | Serve.Mutation.Reweight _ when exact ->
        if Bigint.equal before (Cview.scale v) then incr same else incr changed
      | _ -> ()
    in
    for _ = 0 to Prng.Rng.int rng 2 do
      apply (delta ())
    done;
    if Cview.packed vb then Alcotest.failf "%s: the 2^70 twin packed" what;
    if not (Cview.packed v) then incr spilled;
    let agree name a b =
      if a <> b then Alcotest.failf "%s: %s differs from the 2^70 twin" what name
    in
    let compare_kernels stage v vb =
      for cls = 0 to k - 1 do
        for src = 0 to m - 1 do
          let at name = Printf.sprintf "%s: class %d on %d: %s" stage cls src name in
          agree (at "best_link") (Cview.best_link v ~cls ~src) (Cview.best_link vb ~cls ~src);
          agree (at "is_defector") (Cview.is_defector v ~cls ~src) (Cview.is_defector vb ~cls ~src);
          for dst = 0 to m - 1 do
            if dst <> src then
              agree (at "block")
                (Cview.max_improving_block v ~cls ~src ~dst)
                (Cview.max_improving_block vb ~cls ~src ~dst)
          done
        done;
        List.iter
          (fun only ->
            agree (stage ^ ": the pass")
              (Cview.first_defecting_source ?only v ~cls)
              (Cview.first_defecting_source ?only vb ~cls))
          [ None; Some (Array.init m (fun _ -> Prng.Rng.int rng 2 = 0)) ]
      done;
      agree (stage ^ ": first_defector") (Cview.first_defector v) (Cview.first_defector vb)
    in
    compare_kernels "revised" v vb;
    (* One more unit on a class's weight keeps its denominator, and so
       the scale of every load-linear row. *)
    let cls = Prng.Rng.int rng k in
    apply (reweight cls (Rational.add (Cview.weight v cls) Rational.one));
    compare_kernels "same-denominator reweight" v vb;
    (* Weights (d + 1)/d for d = 2^31 + 1 and 2^31 + 3: each denominator
       is native, their lcm is past max_int, so the scale is the Bigint
       fold's.  The twin shares every denominator, so this step is also
       checked armed (the audit and the native scale check) and against
       the oracle. *)
    if k >= 2 then begin
      let near d = Rational.of_ints (d + 1) d in
      armed (fun () ->
          apply (reweight 0 (near ((1 lsl 31) + 1)));
          apply (reweight (k - 1) (near ((1 lsl 31) + 3))));
      if Bigint.is_native (Cview.scale v) then
        Alcotest.failf "%s: two near-2^31 denominators left a native scale" what;
      incr wide;
      check_cview_kernels (what ^ " (near-2^31 denominators)") v;
      compare_kernels "near-2^31 denominators" v vb
    end;
    let mu, mub = delta () in
    let cls = Prng.Rng.int rng k and link = Prng.Rng.int rng m in
    let repair v mu =
      let batch = [ mu; Serve.Mutation.Arrive { cls; link; count = 1 } ] in
      match Serve.Repair.repair_batch ~max_steps:10_000 v batch with
      | out -> Ok out
      | exception Invalid_argument e -> Error e
    in
    let out = repair v mu in
    agree "the repair outcome" out (repair vb mub);
    (match out with Ok { moves; _ } when moves > 0 -> incr repaired | _ -> ());
    agree "the repaired profile" (Cview.profile v) (Cview.profile vb);
    compare_kernels "repaired" v vb;
    compare_kernels "fresh" (Cview.of_profile g x) (Cview.of_profile gb x)
  done;
  if !spilled < 100 then Alcotest.failf "only %d of 300 cursors spilled" !spilled;
  if !repaired < 100 then Alcotest.failf "only %d of 300 batches needed a repair" !repaired;
  if !same < 100 || !changed < 100 then
    Alcotest.failf "%d exact-lane reweights kept the scale, %d changed it" !same !changed;
  if !wide < 150 then Alcotest.failf "only %d cursors met near-2^31 denominators" !wide

(* The O(1) admission test: a native total with total + W within a row's
   limit admits the row without the O(m) max-load rule.  Armed,
   [Packing] checks each answer of the total test against the loads'
   sum and the rule, so every kernel call below checks that the total
   test never admits a row the rule refuses and refuses only the rows
   it must.  Random exact-lane cursors over all three backends
   (Participation rows have B > 0), through arrivals, departures,
   reweights and capacity revisions, each delta audited; then one class
   on two links at its limit of 3 (see [test_exact_admission_bounds]):
   loads (2, 0) sit on it (total + W = 3), (2, 1) pass the O(m) rule
   only (total + W = 4, max L + W = 3), and (3, 0) pass neither. *)
let test_total_admission () =
  let rng = Prng.Rng.create 0xAD31 in
  armed (fun () ->
      for trial = 1 to 200 do
        let k = 1 + Prng.Rng.int rng 4 and m = Prng.Rng.int_in rng 2 5 in
        let counts, weights, uncertainty = random_backend_cgame rng ~k ~m in
        let g = Cgame.make_uncertain ~counts ~weights ~uncertainty in
        let v = exact_twin g (random_profile rng counts m) in
        for step = 0 to 4 do
          check_cview_kernels (Printf.sprintf "trial %d, step %d" trial step) v;
          let cls = Prng.Rng.int rng k and link = Prng.Rng.int rng m in
          match Prng.Rng.int rng 4 with
          | 0 -> Cview.revise_count v ~cls ~link ~delta:(1 + Prng.Rng.int rng 3)
          | 1 ->
            if Cview.assigned v cls link > 0 && Cview.class_count v cls > 1 then
              Cview.revise_count v ~cls ~link ~delta:(-1)
          | 2 ->
            Cview.revise_weight v ~cls
              (Rational.of_ints (1 + Prng.Rng.int rng 12) (1 + Prng.Rng.int rng 7))
          | _ ->
            Cview.revise_capacity v ~cls ~link
              (Rational.of_ints (1 + Prng.Rng.int rng 9) (1 + Prng.Rng.int rng 5))
        done
      done);
  let caps = [| Rational.of_int 2147483647; Rational.of_ints 1 715827883 |] in
  List.iter
    (fun (x, runs_native) ->
      let what = Printf.sprintf "loads (%d, %d)" x.(0) x.(1) in
      let g =
        Cgame.of_capacities ~counts:[| x.(0) + x.(1) |] ~weights:[| Rational.one |] [| caps |]
      in
      let v = Cview.of_profile g [| x |] in
      if Cview.packed v then Alcotest.failf "%s: the instance packed" what;
      armed (fun () -> check_cview_kernels what v);
      if native v ~cls:0 <> runs_native then
        Alcotest.failf "%s: the kernels ran %s" what (if runs_native then "on Bigints" else "natively"))
    [ ([| 2; 0 |], true); ([| 2; 1 |], true); ([| 3; 0 |], false) ]

(* ------------------------------------------------------------------ *)
(* Proportional start vs the Rational oracle                           *)

(* The Rational formula [Cbr.proportional_start] evaluated before it
   divided integers: upto_l = ⌊count·S_l/S⌋ with S_l the capacity
   prefix sum and S the row sum, four Rational operations per link. *)
let reference_proportional_start g =
  Array.init (Cgame.classes g) (fun c ->
      let row = Cgame.capacity_row g c in
      let total = Rational.sum (Array.to_list row) in
      let count = Rational.of_int (Cgame.count g c) in
      let cum = ref Rational.zero and prev = ref 0 in
      Array.map
        (fun cap ->
          cum := Rational.add !cum cap;
          let upto =
            Bigint.to_int_exn
              (Rational.num (Rational.floor (Rational.div (Rational.mul count !cum) total)))
          in
          let here = upto - !prev in
          prev := upto;
          here)
        row)

(* The start equals the oracle, and each class row is a rounding of
   the class's capacity proportions: it sums to the count, has no
   negative entry, and misses count·c_l/S by less than one user. *)
let check_start what g =
  let x = Algo.Cbr.proportional_start g in
  if x <> reference_proportional_start g then
    Alcotest.failf "%s: the start differs from the Rational oracle" what;
  Array.iteri
    (fun c row ->
      let count = Cgame.count g c and caps = Cgame.capacity_row g c in
      let total = Rational.sum (Array.to_list caps) in
      if Array.fold_left ( + ) 0 row <> count then
        Alcotest.failf "%s: class %d does not sum to its count %d" what c count;
      Array.iteri
        (fun l e ->
          if e < 0 then Alcotest.failf "%s: class %d has %d users on link %d" what c e l;
          let ideal = Rational.div (Rational.mul (Rational.of_int count) caps.(l)) total in
          if Rational.compare (Rational.abs (Rational.sub (Rational.of_int e) ideal)) Rational.one >= 0
          then Alcotest.failf "%s: class %d on link %d is a user or more off" what c l)
        row)
    x

(* Class games over all three backends; rows whose entries have
   distinct prime denominators; those rows scaled by 2^±100 as a
   whole and on one link only (Big operands, skewed proportions); and
   one or two classes of nearly max_int / 2 users, where count·S_l
   leaves the native range. *)
let test_proportional_start () =
  let rng = Prng.Rng.create 0x57A7 in
  let primes = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 |] in
  for trial = 1 to 500 do
    let k = 1 + Prng.Rng.int rng 3 and m = Prng.Rng.int_in rng 2 4 in
    let counts, weights, uncertainty = random_backend_cgame rng ~k ~m in
    let what = Printf.sprintf "trial %d" trial in
    check_start what (Cgame.make_uncertain ~counts ~weights ~uncertainty);
    let rows =
      Array.init k (fun _ ->
          let first = Prng.Rng.int rng (Array.length primes) in
          Array.init m (fun l ->
              Rational.of_ints (1 + Prng.Rng.int rng 40)
                primes.((first + l) mod Array.length primes)))
    in
    check_start (what ^ " (distinct denominators)") (Cgame.of_capacities ~counts ~weights rows);
    let big = Rational.of_bigint two_100 in
    let factor = if trial mod 2 = 0 then big else Rational.inv big in
    let scaled = Array.map (Array.map (Rational.mul factor)) rows in
    check_start (what ^ " (2^±100 rows)") (Cgame.of_capacities ~counts ~weights scaled);
    let skewed =
      Array.map
        (fun row ->
          let row = Array.copy row and l = Prng.Rng.int rng m in
          row.(l) <- Rational.mul factor row.(l);
          row)
        rows
    in
    check_start (what ^ " (one 2^±100 link)") (Cgame.of_capacities ~counts ~weights skewed);
    let kh = min k 2 in
    let huge = Array.init kh (fun _ -> (max_int / 2) - Prng.Rng.int rng 1000) in
    let sub a = Array.sub a 0 kh in
    check_start (what ^ " (max_int / 2 users)")
      (Cgame.make_uncertain ~counts:huge ~weights:(sub weights) ~uncertainty:(sub uncertainty));
    check_start (what ^ " (max_int / 2 users, 2^±100 rows)")
      (Cgame.of_capacities ~counts:huge ~weights:(sub weights) (sub scaled))
  done

(* The start is cumulative rounding, not largest remainder.  One user
   over the row (2, 1, 2) has quotas (2/5, 1/5, 2/5): largest remainder
   seats it on link 0, the first of the two largest remainders, while
   cumulative rounding seats it on the link where the prefix sum first
   reaches the whole row, link 2. *)
let test_start_rounding () =
  let r = Rational.of_int in
  let g = Cgame.of_capacities ~counts:[| 1 |] ~weights:[| Rational.one |] [| [| r 2; r 1; r 2 |] |] in
  Alcotest.(check (array (array int)))
    "cumulative rounding" [| [| 0; 0; 1 |] |] (Algo.Cbr.proportional_start g)

(* ------------------------------------------------------------------ *)
(* Block best-response dynamics                                        *)

let test_cbr_convergence () =
  let rng = Prng.Rng.create 0xCB12 in
  let converged = ref 0 in
  for trial = 1 to 1_500 do
    let n = 1 + Prng.Rng.int rng 8 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let x = Cgame.compress_profile cg ~class_of p in
    let o = Algo.Cbr.converge ~max_steps:10_000 cg x in
    if o.converged then begin
      incr converged;
      let v = Cview.of_profile cg o.profile in
      if not (Cview.is_nash v) then
        Alcotest.failf "trial %d: converged to a non-equilibrium" trial;
      let ex = Cgame.expand cg in
      if not (Pure.is_nash ex (Cgame.expand_profile cg o.profile)) then
        Alcotest.failf "trial %d: class equilibrium is not a per-user equilibrium" trial;
      if o.users_moved < o.steps then
        Alcotest.failf "trial %d: %d steps moved only %d users" trial o.steps o.users_moved
    end
  done;
  if !converged < 1_000 then
    Alcotest.failf "block dynamics converged on only %d of 1500 instances" !converged

let () =
  Alcotest.run "cgame"
    [
      ( "bridge+pure",
        [
          Alcotest.test_case "10k-game differential vs Pure/View" `Slow test_pure_differential;
          Alcotest.test_case "twelve-user games" `Quick test_twelve_users;
          Alcotest.test_case "maximal blocks vs single-move simulation" `Quick
            test_max_improving_block;
          Alcotest.test_case "maximal blocks at exact ties and clamps" `Quick
            test_block_ties_and_clamps;
        ] );
      ( "lanes",
        [
          Alcotest.test_case "exact-lane kernels vs the Rational oracle" `Quick
            test_exact_lane_kernels;
          Alcotest.test_case "product-bound edges agree across lanes" `Quick
            test_product_bound_edges;
          Alcotest.test_case "product bound with 2·total past max_int" `Quick
            test_product_bound_total_overflow;
          Alcotest.test_case "per-class pass vs per-pair scan" `Quick test_pass_vs_pair_scan;
          Alcotest.test_case "per-class pass edge cases" `Quick test_pass_edge_cases;
          Alcotest.test_case "packed kernels allocate nothing" `Quick
            test_packed_kernels_allocate_nothing;
          Alcotest.test_case "exact-lane admission at max_int" `Quick test_exact_admission_bounds;
          Alcotest.test_case "native image vs a 2^70 twin" `Quick test_native_image_vs_big_twin;
          Alcotest.test_case "O(1) total admission vs the max-load rule" `Quick
            test_total_admission;
        ] );
      ( "algo",
        [
          Alcotest.test_case "block best-response convergence" `Slow test_cbr_convergence;
          Alcotest.test_case "proportional start vs the Rational oracle" `Quick
            test_proportional_start;
          Alcotest.test_case "proportional start is cumulative rounding" `Quick
            test_start_rounding;
        ] );
    ]
