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
     - maximal improving blocks against single-move simulation
     - block best-response convergence (Nash at both levels). *)

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
     the per-user policy makes on the expanded profile. *)
  let ex = Cgame.expand cg in
  let ex_p = Cgame.expand_profile cg x in
  let off = offsets cg in
  (match
     (Algo.Best_response.step ex ~policy:Algo.Best_response.First_defector ex_p,
      Cview.first_defector v)
   with
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
(* Maximal improving blocks vs single-move simulation                  *)

let test_max_improving_block () =
  let rng = Prng.Rng.create 0xB10C in
  for trial = 1 to 2_000 do
    let n = Prng.Rng.int_in rng 2 9 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_game rng ~kind:trial ~n ~m in
    let cg, class_of = Cgame.compress g in
    let p = Array.init n (fun _ -> Prng.Rng.int rng m) in
    let x = Cgame.compress_profile cg ~class_of p in
    let v = Cview.of_profile cg x in
    let cls = Prng.Rng.int rng (Cgame.classes cg) in
    let src = Prng.Rng.int rng m in
    let dst = (src + 1 + Prng.Rng.int rng (m - 1)) mod m in
    let t = Cview.max_improving_block v ~cls ~src ~dst in
    let avail = Cview.assigned v cls src in
    if t > avail then Alcotest.failf "trial %d: block exceeds available users" trial;
    (* Each of the t movers must improve in turn; the (t+1)-th must
       not.  [improves] evaluates the j-th comparison on the view state
       after j-1 single moves. *)
    let improves () =
      Rational.compare (Cview.latency_after_move v ~cls ~src dst) (Cview.latency v cls src) < 0
    in
    for j = 1 to t do
      if not (improves ()) then Alcotest.failf "trial %d: mover %d of %d does not improve" trial j t;
      Cview.move v ~cls ~src ~dst ~count:1
    done;
    if avail > t && improves () then
      Alcotest.failf "trial %d: block %d is not maximal (%d available)" trial t avail;
    for _ = 1 to t do
      Cview.undo v
    done;
    (* The view must be back at the start state after the undos. *)
    for l = 0 to m - 1 do
      Alcotest.check check_q "undo restores loads" (Pure.loads g p).(l) (Cview.load v l)
    done
  done

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

let test_ownership_guard () =
  (* Cview mutators carry the same SELFISH_OWNERSHIP guard as View;
     forge the owner to pin the Cview-specific failure message. *)
  let module O = Parallel.Ownership in
  let saved = !O.enabled in
  O.enabled := true;
  Fun.protect
    ~finally:(fun () -> O.enabled := saved)
    (fun () ->
      let g =
        Game.kp
          ~weights:[| Rational.one; Rational.one; Rational.of_int 2 |]
          ~capacities:[| Rational.one; Rational.of_int 2 |]
      in
      let cg, _ = Cgame.compress g in
      let v = Cview.of_profile cg (Algo.Cbr.proportional_start cg) in
      Alcotest.(check int) "owner is the creating domain" (O.self_id ()) (Cview.owner v);
      (* Same-domain recorded no-op move passes. *)
      Cview.move v ~cls:0 ~src:0 ~dst:0 ~count:0;
      let expected =
        O.Violation
          (Printf.sprintf
             "SELFISH_OWNERSHIP: Cview cursor created on domain 777 mutated from domain %d"
             (O.self_id ()))
      in
      Cview.unsafe_set_owner v 777;
      Alcotest.check_raises "foreign-domain move trips the guard" expected (fun () ->
          Cview.move v ~cls:0 ~src:0 ~dst:0 ~count:0);
      Alcotest.check_raises "foreign-domain undo trips the guard" expected (fun () ->
          Cview.undo v);
      Alcotest.check_raises "foreign-domain social_cost1 trips the guard" expected (fun () ->
          ignore (Cview.social_cost1 v));
      Cview.unsafe_set_owner v (O.self_id ());
      Cview.undo v;
      Alcotest.(check int) "history balanced after guarded attempts" 0 (Cview.depth v))

let () =
  Alcotest.run "cgame"
    [
      ( "bridge+pure",
        [
          Alcotest.test_case "10k-game differential vs Pure/View" `Slow test_pure_differential;
          Alcotest.test_case "twelve-user games" `Quick test_twelve_users;
          Alcotest.test_case "maximal blocks vs single-move simulation" `Quick
            test_max_improving_block;
        ] );
      ( "algo",
        [
          Alcotest.test_case "block best-response convergence" `Slow test_cbr_convergence;
        ] );
      ( "ownership",
        [ Alcotest.test_case "sanitizer guards Cview mutators" `Quick test_ownership_guard ] );
    ]
