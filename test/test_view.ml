(* Differential testing of the incremental evaluation core
   (Model.View) against recompute-from-scratch semantics.  [Seed]
   reimplements the pre-View evaluation path — every query
   re-materialises the loads with a full O(n) scan — and randomized
   move/undo sequences drive both in lockstep: after every operation
   the view's loads and latencies must equal the seed recompute, and
   periodic full checks compare [is_nash], [defectors],
   [improving_moves] and [best_response_for] for every user.  Episodes
   span KP (shared point beliefs), private point beliefs and
   heterogeneous shared-space beliefs, with and without non-zero
   initial traffic.

   The operation budget (>= 50_000 move/undo ops) is what ISSUE.md's
   differential-test acceptance gate refers to; shrink it only with a
   matching change there. *)

open Numeric
open Model
open Experiments
module Rng = Prng.Rng

let episodes = 1_200
let min_total_ops = 50_000

(* ------------------------------------------------------------------ *)
(* Seed reference: recompute everything from scratch on every query.   *)

module Seed = struct
  let loads g ?initial p =
    let t =
      match initial with
      | Some t -> Array.copy t
      | None -> Array.make (Game.links g) Rational.zero
    in
    Array.iteri (fun i l -> t.(l) <- Rational.add t.(l) (Game.weight g i)) p;
    t

  let latency g ?initial p i =
    let loads = loads g ?initial p in
    Rational.div loads.(p.(i)) (Game.capacity g i p.(i))

  let latency_on_link g ?initial p i l =
    let loads = loads g ?initial p in
    let load = if p.(i) = l then loads.(l) else Rational.add loads.(l) (Game.weight g i) in
    Rational.div load (Game.capacity g i l)

  let best_response g ?initial p i =
    let best_link = ref 0 and best = ref (latency_on_link g ?initial p i 0) in
    for l = 1 to Game.links g - 1 do
      let lat = latency_on_link g ?initial p i l in
      if Rational.compare lat !best < 0 then begin
        best_link := l;
        best := lat
      end
    done;
    (!best_link, !best)

  let improving_moves g ?initial p i =
    let current = latency g ?initial p i in
    let moves = ref [] in
    for l = Game.links g - 1 downto 0 do
      if l <> p.(i) && Rational.compare (latency_on_link g ?initial p i l) current < 0 then
        moves := l :: !moves
    done;
    !moves

  let is_defector g ?initial p i = improving_moves g ?initial p i <> []
  let defectors g ?initial p = List.filter (is_defector g ?initial p) (List.init (Array.length p) Fun.id)
  let is_nash g ?initial p = defectors g ?initial p = []
end

(* ------------------------------------------------------------------ *)
(* Random games across the three belief families                       *)

let random_game rng =
  let n = Rng.int_in rng 2 6 and m = Rng.int_in rng 2 4 in
  let weights =
    match Rng.int rng 3 with
    | 0 -> Generators.Unit_weights
    | 1 -> Generators.Integer_weights 5
    | _ -> Generators.Rational_weights 6
  in
  let beliefs =
    match Rng.int rng 3 with
    | 0 -> Generators.Shared_point { cap_bound = 6 } (* KP instance *)
    | 1 -> Generators.Private_point { cap_bound = 6 }
    | _ -> Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 }
  in
  Generators.game rng ~n ~m ~weights ~beliefs

let random_initial rng m =
  if Rng.bool rng then None
  else Some (Array.init m (fun _ -> Rng.rational rng ~den_bound:5))

(* ------------------------------------------------------------------ *)
(* Lockstep comparison                                                 *)

let check_state g ?initial v shadow =
  let m = Game.links g and n = Game.users g in
  let expected = Seed.loads g ?initial shadow in
  for l = 0 to m - 1 do
    if not (Rational.equal (View.load v l) expected.(l)) then
      Alcotest.failf "load(%d) diverged: view=%s seed=%s" l
        (Rational.to_string (View.load v l))
        (Rational.to_string expected.(l))
  done;
  for i = 0 to n - 1 do
    if View.link v i <> shadow.(i) then
      Alcotest.failf "link(%d) diverged: view=%d shadow=%d" i (View.link v i) shadow.(i);
    if not (Rational.equal (View.latency v i) (Seed.latency g ?initial shadow i)) then
      Alcotest.failf "latency(%d) diverged" i
  done

let check_predicates g ?initial v shadow =
  let n = Game.users g and m = Game.links g in
  if View.is_nash v <> Seed.is_nash g ?initial shadow then Alcotest.fail "is_nash diverged";
  let vd = View.defectors v and sd = Seed.defectors g ?initial shadow in
  if vd <> sd then Alcotest.fail "defectors diverged";
  for i = 0 to n - 1 do
    if View.improving_moves v i <> Seed.improving_moves g ?initial shadow i then
      Alcotest.failf "improving_moves(%d) diverged" i;
    let vl, vlat = View.best_response_for v i and sl, slat = Seed.best_response g ?initial shadow i in
    if vl <> sl || not (Rational.equal vlat slat) then
      Alcotest.failf "best_response_for(%d) diverged" i;
    for l = 0 to m - 1 do
      if
        not
          (Rational.equal (View.latency_on_link v i l) (Seed.latency_on_link g ?initial shadow i l))
      then Alcotest.failf "latency_on_link(%d,%d) diverged" i l
    done
  done

let test_move_undo_differential () =
  let rng = Rng.create 0x51EE7 in
  let total_ops = ref 0 in
  for _ = 1 to episodes do
    let g = random_game rng in
    let n = Game.users g and m = Game.links g in
    let initial = random_initial rng m in
    let origin = Array.init n (fun _ -> Rng.int rng m) in
    let v = View.of_profile g ?initial origin in
    let shadow = Array.copy origin in
    let stack = ref [] in
    let ops = 42 + Rng.int rng 12 in
    for op = 1 to ops do
      incr total_ops;
      (* Bias towards moves so the history grows, but exercise undo
         (including undo-of-a-no-op-move where l = old link). *)
      if Rng.int rng 3 = 0 && !stack <> [] then begin
        match !stack with
        | (i, old) :: rest ->
          View.undo v;
          shadow.(i) <- old;
          stack := rest
        | [] -> assert false
      end
      else begin
        let i = Rng.int rng n and l = Rng.int rng m in
        stack := (i, shadow.(i)) :: !stack;
        View.move v i l;
        shadow.(i) <- l
      end;
      if View.depth v <> List.length !stack then Alcotest.fail "history depth diverged";
      check_state g ?initial v shadow;
      if op mod 8 = 0 then check_predicates g ?initial v shadow
    done;
    check_predicates g ?initial v shadow;
    (* Unwind the whole history: the view must land exactly on the
       origin profile (exact rational add/sub round-trips). *)
    while View.depth v > 0 do
      match !stack with
      | (i, old) :: rest ->
        View.undo v;
        shadow.(i) <- old;
        stack := rest
      | [] -> assert false
    done;
    if not (Pure.equal (View.profile v) origin) then Alcotest.fail "undo did not restore origin";
    check_state g ?initial v origin
  done;
  if !total_ops < min_total_ops then
    Alcotest.failf "only %d move/undo ops executed (need >= %d)" !total_ops min_total_ops

(* ------------------------------------------------------------------ *)
(* Sweep order and invariants                                          *)

let test_sweep_matches_iter_profiles () =
  let rng = Rng.create 0x5EE9 in
  for _ = 1 to 60 do
    let n = Rng.int_in rng 2 4 and m = Rng.int_in rng 2 3 in
    let weights =
      if Rng.bool rng then Generators.Integer_weights 5 else Generators.Rational_weights 6
    in
    let beliefs =
      if Rng.bool rng then Generators.Private_point { cap_bound = 6 }
      else Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 }
    in
    let g = Generators.game rng ~n ~m ~weights ~beliefs in
    let initial = random_initial rng m in
    let reference = ref [] in
    Social.iter_profiles g (fun p -> reference := Array.copy p :: !reference);
    let swept = ref [] in
    View.sweep g ?initial (fun v ->
        (* A balanced move/undo inside the callback must not disturb
           the enumeration. *)
        if Rng.int rng 4 = 0 then begin
          View.move v (Rng.int rng n) (Rng.int rng m);
          View.undo v
        end;
        if View.depth v <> 0 then Alcotest.fail "sweep leaked history depth";
        check_state g ?initial v (View.profile v);
        swept := View.profile v :: !swept);
    let reference = List.rev !reference and swept = List.rev !swept in
    if List.length reference <> List.length swept then Alcotest.fail "sweep profile count diverged";
    List.iter2
      (fun a b -> if not (Pure.equal a b) then Alcotest.fail "sweep order diverged from iter_profiles")
      reference swept
  done

(* ------------------------------------------------------------------ *)
(* Two-lane agreement: the packed native-int lane and the exact
   [Bigint] lane must produce identical predicates and
   proportionally identical quantities.  Scaling every weight by 2^100
   leaves all equilibrium predicates invariant (latencies scale
   uniformly) but blows the packing bound, so the same instance can be
   evaluated on both lanes and compared. *)

let test_packed_lane_agreement () =
  let rng = Rng.create 0x9ACED in
  let k = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 100) in
  let packed_games = ref 0 in
  for _ = 1 to 150 do
    let g = random_game rng in
    match Game.packed_tables g with
    | None -> ()
    | Some _ ->
      incr packed_games;
      let n = Game.users g and m = Game.links g in
      let weights = Array.map (Rational.mul k) (Game.weights g) in
      let gx = Game.of_capacities ~weights (Game.capacity_matrix g) in
      for _ = 1 to 12 do
        let p = Array.init n (fun _ -> Rng.int rng m) in
        let v = View.of_profile g p and vx = View.of_profile gx p in
        if not (View.packed v) then Alcotest.fail "packable game built an exact view";
        if View.packed vx then Alcotest.fail "2^100-scaled game packed anyway";
        if View.is_nash v <> View.is_nash vx then Alcotest.fail "is_nash diverged across lanes";
        if View.defectors v <> View.defectors vx then
          Alcotest.fail "defectors diverged across lanes";
        for l = 0 to m - 1 do
          if not (Rational.equal (Rational.mul k (View.load v l)) (View.load vx l)) then
            Alcotest.failf "load(%d) not k-scaled across lanes" l
        done;
        for i = 0 to n - 1 do
          if View.improving_moves v i <> View.improving_moves vx i then
            Alcotest.failf "improving_moves(%d) diverged across lanes" i;
          let bl, blat = View.best_response_for v i in
          let xl, xlat = View.best_response_for vx i in
          if bl <> xl then Alcotest.failf "best_response_for(%d) link diverged across lanes" i;
          if not (Rational.equal (Rational.mul k blat) xlat) then
            Alcotest.failf "best_response_for(%d) latency not k-scaled" i;
          if not (Rational.equal (Rational.mul k (View.latency v i)) (View.latency vx i)) then
            Alcotest.failf "latency(%d) not k-scaled across lanes" i
        done
      done
  done;
  if !packed_games < 50 then
    Alcotest.failf "only %d of 150 random games packed (wanted >= 50)" !packed_games

let test_initial_spill_falls_back_exactly () =
  (* A packable game whose initial traffic cannot be rescaled into the
     native bound must spill to the exact lane and still agree with the
     seed recompute. *)
  let g =
    Game.kp
      ~weights:[| Rational.one; Rational.of_int 2; Rational.of_ints 1 2 |]
      ~capacities:[| Rational.one; Rational.of_ints 3 2 |]
  in
  let tiny = Rational.make Bigint.one (Bigint.pow (Bigint.of_int 2) 100) in
  let initial = [| tiny; Rational.zero |] in
  let p = [| 0; 1; 0 |] in
  let v = View.of_profile g ~initial p in
  if View.packed v then Alcotest.fail "2^-100 initial traffic packed anyway";
  check_state g ~initial v p;
  check_predicates g ~initial v p;
  (* The same profile without initial traffic packs. *)
  if not (View.packed (View.of_profile g p)) then Alcotest.fail "plain KP instance did not pack"

(* ------------------------------------------------------------------ *)
(* Guard rails                                                         *)

let test_validation () =
  let rng = Rng.create 0xFA11 in
  let g = random_game rng in
  let n = Game.users g and m = Game.links g in
  let p = Array.make n 0 in
  Alcotest.check_raises "short profile" (Invalid_argument
    "View.of_profile: profile length differs from user count")
    (fun () -> ignore (View.of_profile g (Array.make (n + 1) 0)));
  Alcotest.check_raises "link out of range" (Invalid_argument
    "View.of_profile: link out of range")
    (fun () -> ignore (View.of_profile g (Array.make n m)));
  Alcotest.check_raises "negative initial" (Invalid_argument
    "View.of_profile: negative initial traffic")
    (fun () ->
      ignore (View.of_profile g ~initial:(Array.make m (Rational.of_int (-1))) p));
  let v = View.of_profile g p in
  Alcotest.check_raises "undo on empty history" (Invalid_argument "View.undo: empty history")
    (fun () -> View.undo v);
  Alcotest.check_raises "move user out of range" (Invalid_argument "View.move: user out of range")
    (fun () -> View.move v n 0);
  Alcotest.check_raises "move link out of range" (Invalid_argument "View.move: link out of range")
    (fun () -> View.move v 0 m)

let () =
  Alcotest.run "view"
    [
      ( "incremental",
        [
          ("move/undo vs seed recompute", `Quick, test_move_undo_differential);
          ("sweep matches iter_profiles", `Quick, test_sweep_matches_iter_profiles);
          ("packed and exact lanes agree", `Quick, test_packed_lane_agreement);
          ("initial-traffic spill stays exact", `Quick, test_initial_spill_falls_back_exactly);
          ("validation and empty-history errors", `Quick, test_validation);
        ] );
    ]
