(* Differential tests for the load-distribution DP (Model.Load_dist)
   and the cached mixed evaluator (Model.Mixed.Eval).

   The DP must be bit-identical to the seed enumerator — the sum over
   all m^n pure realisations weighted by the product measure — which is
   reimplemented here exactly as it shipped.  The evaluator must agree
   with the seed's scan-based Mixed formulas, also reimplemented here
   (the live Mixed one-shots now delegate to Eval, so testing against
   them would be circular). *)

open Model
open Numeric

let check_q = Alcotest.testable Rational.pp Rational.equal

(* ------------------------------------------------------------------ *)
(* Seed reimplementations                                              *)

(* Seed [Congestion.expected_max_congestion]: brute force over all m^n
   realisations of the product measure. *)
let seed_expected_max g p =
  let n = Game.users g and m = Game.links g in
  let caps = Game.capacity_row g 0 in
  let acc = ref Rational.zero in
  Social.iter_profiles g (fun sigma ->
      let prob = ref Rational.one in
      for i = 0 to n - 1 do
        prob := Rational.mul !prob p.(i).(sigma.(i))
      done;
      if not (Rational.is_zero !prob) then begin
        let loads = Pure.loads g sigma in
        let best = ref (Rational.div loads.(0) caps.(0)) in
        for l = 1 to m - 1 do
          best := Rational.max !best (Rational.div loads.(l) caps.(l))
        done;
        acc := Rational.add !acc (Rational.mul !prob !best)
      end);
  !acc

(* Seed Mixed layer: every traffic is an O(n) rescan. *)
let seed_expected_traffic g p l =
  let acc = ref Rational.zero in
  Array.iteri (fun i row -> acc := Rational.add !acc (Rational.mul row.(l) (Game.weight g i))) p;
  !acc

let seed_latency_on_link g p i l =
  let w_i = Game.weight g i in
  let own = Rational.mul (Rational.sub Rational.one p.(i).(l)) w_i in
  Rational.div (Rational.add own (seed_expected_traffic g p l)) (Game.capacity g i l)

let seed_min_latency g p i =
  let best = ref (seed_latency_on_link g p i 0) in
  for l = 1 to Game.links g - 1 do
    best := Rational.min !best (seed_latency_on_link g p i l)
  done;
  !best

let seed_is_nash g p =
  let rec check_user i =
    if i >= Game.users g then true
    else begin
      let lambda = seed_min_latency g p i in
      let rec check_link l =
        if l >= Game.links g then true
        else begin
          let on_l = seed_latency_on_link g p i l in
          let ok =
            if Rational.sign p.(i).(l) > 0 then Rational.equal on_l lambda
            else Rational.compare on_l lambda >= 0
          in
          ok && check_link (l + 1)
        end
      in
      check_link 0 && check_user (i + 1)
    end
  in
  check_user 0

let seed_social_cost1 g p = Rational.sum (List.init (Game.users g) (seed_min_latency g p))

let seed_social_cost2 g p =
  List.fold_left Rational.max Rational.zero (List.init (Game.users g) (seed_min_latency g p))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* Small weight/capacity pools make duplicate user classes common. *)
let random_kp rng ~n ~m =
  Game.kp
    ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)))
    ~capacities:(Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))

let random_non_kp rng ~n ~m =
  Game.of_capacities
    ~weights:(Array.init n (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 3)))
    (Array.init n (fun _ -> Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5))))

(* The profile kinds named by the issue: fully mixed rows, pure
   embeddings, rows with zero-probability entries, duplicated user
   classes, and n = 1 degenerates (kind 4 pairs with n = 1 below). *)
let random_profile rng ~kind g =
  let n = Game.users g and m = Game.links g in
  match kind with
  | 0 -> Array.init n (fun _ -> Prng.Rng.positive_simplex rng ~dim:m ~grain:(m + 2))
  | 1 -> Mixed.of_pure g (Array.init n (fun _ -> Prng.Rng.int rng m))
  | 2 ->
    (* Lattice simplex points: zero entries are common. *)
    Array.init n (fun _ -> Prng.Rng.simplex rng ~dim:m ~grain:(m + 1))
  | 3 ->
    (* At most two distinct rows shared across all users: the
       multinomial block path dominates. *)
    let pool =
      Array.init 2 (fun _ -> Prng.Rng.positive_simplex rng ~dim:m ~grain:(m + 2))
    in
    Array.init n (fun _ -> Array.copy pool.(Prng.Rng.int rng 2))
  | _ -> Array.init n (fun _ -> Prng.Rng.simplex rng ~dim:m ~grain:(m + 2))

(* ------------------------------------------------------------------ *)
(* The DP vs the seed enumerator                                       *)

let test_dp_differential () =
  let rng = Prng.Rng.create 0x10AD in
  let games = 10_000 in
  for trial = 1 to games do
    let kind = trial mod 5 in
    let n = if kind = 4 then 1 else 1 + Prng.Rng.int_in rng 1 4 in
    let m = Prng.Rng.int_in rng 2 3 in
    let g = random_kp rng ~n ~m in
    let p = random_profile rng ~kind g in
    let dist = Load_dist.of_mixed g p in
    Alcotest.check check_q
      (Printf.sprintf "total probability (trial %d)" trial)
      Rational.one (Load_dist.total_probability dist);
    if Load_dist.classes dist > n then
      Alcotest.failf "trial %d: %d classes for %d users" trial (Load_dist.classes dist) n;
    let dp = Congestion.expected_max_congestion g p in
    let seed = seed_expected_max g p in
    if not (Rational.equal dp seed) then
      Alcotest.failf "trial %d (kind %d, n=%d, m=%d): DP %s <> seed %s" trial kind n m
        (Rational.to_string dp) (Rational.to_string seed)
  done

(* Exchangeable users collapse to one class and a polynomial state
   space; the seed guard (m^n <= 10^6) would reject n = 20 outright. *)
let test_beyond_seed_limit () =
  let n = 20 and m = 3 in
  let g = Game.kp ~weights:(Array.make n Rational.one) ~capacities:[| Rational.one; Rational.two; Rational.of_int 3 |] in
  let p = Mixed.uniform g in
  let dist = Load_dist.of_mixed g p in
  Alcotest.(check int) "one class" 1 (Load_dist.classes dist);
  Alcotest.(check int) "C(n+m-1, m-1) states" 231 (Load_dist.size dist);
  Alcotest.check check_q "probabilities sum to one" Rational.one
    (Load_dist.total_probability dist);
  let emc = Congestion.expected_max_congestion g p in
  (* E[max_l load_l/c_l] >= max_l E[load_l]/c_l = (n/m)/1 by Jensen on
     the max, and <= n/min_c = n (all users on the slowest link). *)
  Alcotest.(check bool) "lower bound" true
    (Rational.compare emc (Rational.of_ints n m) >= 0);
  Alcotest.(check bool) "upper bound" true (Rational.compare emc (Rational.of_int n) <= 0);
  (* A pure profile embedded as mixed is a point mass: one state, and
     the expectation collapses to the pure max congestion. *)
  let sigma = Array.init n (fun i -> i mod m) in
  let pure_dist = Load_dist.of_mixed g (Mixed.of_pure g sigma) in
  Alcotest.(check int) "point mass" 1 (Load_dist.size pure_dist);
  Alcotest.check check_q "degenerate expectation"
    (Congestion.max_congestion g sigma)
    (Congestion.expected_max_congestion g (Mixed.of_pure g sigma))

(* Regression for the Combinat refactor: [class_splits] now takes its
   multinomials and composition enumeration from [Numeric.Combinat].
   A fixed deterministic corpus pins the DP bit-identical to the seed
   enumerator (and the state-space size to the composition count for a
   one-class instance), so a drift in the shared module cannot hide
   behind the randomized trials. *)
let test_shared_combinatorics_regression () =
  let rng = Prng.Rng.create 0xC0DE in
  for trial = 1 to 300 do
    let n = 1 + Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
    let g = random_kp rng ~n ~m in
    let p = random_profile rng ~kind:(trial mod 5) g in
    Alcotest.check check_q
      (Printf.sprintf "combinat regression (trial %d)" trial)
      (seed_expected_max g p)
      (Congestion.expected_max_congestion g p)
  done;
  (* One exchangeable class, strictly positive rows: the DP must hold
     exactly C(n+m-1, m-1) load states — Combinat's composition count. *)
  let n = 9 and m = 3 in
  let g =
    Game.kp ~weights:(Array.make n Rational.one)
      ~capacities:(Array.init m (fun l -> Rational.of_int (l + 1)))
  in
  let dist = Load_dist.of_mixed g (Mixed.uniform g) in
  Alcotest.(check int) "size = compositions"
    (Combinat.compositions_int ~total:n ~parts:m)
    (Load_dist.size dist)

(* The guard counts distinct states, and a layer never holds fewer
   states than the one before it, so [limit] = the final size passes
   and one less trips, with the same message; presizing a layer's
   table does not move that point.  Checked on both lanes: the random
   instance runs natively, and its twin with every weight times 2^70
   (the same load structure) has a key space past max_int. *)
let test_state_limit_guard () =
  let g = random_kp (Prng.Rng.create 7) ~n:4 ~m:3 in
  let p = random_profile (Prng.Rng.create 8) ~kind:0 g in
  let big = Rational.of_bigint (Bigint.pow (Bigint.of_int 2) 70) in
  let twin =
    Game.kp ~weights:(Array.map (Rational.mul big) (Game.weights g)) ~capacities:(Game.capacity_row g 0)
  in
  let message = Invalid_argument "Load_dist.of_mixed: distinct load states exceed the limit" in
  List.iter
    (fun (lane, g) ->
      Alcotest.check_raises (lane ^ ": limit trips") message (fun () ->
          ignore (Load_dist.of_mixed ~limit:2 g p));
      let size = Load_dist.size (Load_dist.of_mixed g p) in
      Alcotest.(check int) (lane ^ ": limit = size passes") size
        (Load_dist.size (Load_dist.of_mixed ~limit:size g p));
      Alcotest.check_raises (lane ^ ": limit = size - 1 trips") message (fun () ->
          ignore (Load_dist.of_mixed ~limit:(size - 1) g p)))
    [ ("native", g); ("exact", twin) ]

(* ------------------------------------------------------------------ *)
(* Large frontiers: distinct powers-of-two weights keep every
   realisation's load vector unique, so each user is its own class and
   the DP holds all 3^8 states by the last layer. *)

let test_distinct_weights_frontier () =
  let n = 8 and m = 3 in
  let g =
    Game.kp
      ~weights:(Array.init n (fun i -> Rational.of_int (1 lsl i)))
      ~capacities:(Array.init m (fun l -> Rational.of_int (l + 1)))
  in
  let total name p =
    Alcotest.check check_q (name ^ ": total probability") Rational.one
      (Load_dist.total_probability (Load_dist.of_mixed g p))
  in
  let uniform = Mixed.uniform g in
  total "uniform" uniform;
  Alcotest.(check int) "distinct weights keep all realisations distinct" 6561
    (Load_dist.size (Load_dist.of_mixed g uniform));
  (* Rows with zero entries: some realisations vanish. *)
  total "skewed"
    (Array.init n (fun i ->
         if i mod 2 = 0 then [| Rational.of_ints 1 2; Rational.of_ints 1 2; Rational.zero |]
         else [| Rational.zero; Rational.of_ints 1 3; Rational.of_ints 2 3 |]))

(* ------------------------------------------------------------------ *)
(* Lattice paths: scaled loads (L > 1), mixed row denominators, keys
   beyond max_int, and phantom-link participation profiles.  Integer
   weights 1–3 never leave the L = 1, native-key corner. *)

(* The number of distinct load vectors the seed enumerator visits with
   positive probability (at most 4^4 realisations here, so a list). *)
let seed_states g p =
  let seen = ref [] in
  Social.iter_profiles g (fun sigma ->
      if Array.for_all (fun i -> Rational.sign p.(i).(sigma.(i)) > 0) (Array.init (Game.users g) Fun.id)
      then begin
        let loads = Pure.loads g sigma in
        if not (List.exists (Qvec.equal loads) !seen) then seen := loads :: !seen
      end);
  List.length !seen

(* The rational SCw of a load vector, Σ_l load_l²/c_l over the links
   of [caps] (coordinates past them ignored). *)
let scw_of_loads ~caps loads =
  let acc = ref Rational.zero in
  Array.iteri
    (fun l c -> acc := Rational.add !acc (Rational.div (Rational.mul loads.(l) loads.(l)) c))
    caps;
  !acc

(* The integer SCw of the scaled loads, Σ_l K_l²·u_l with 1/c_l = u_l/C,
   to be divided by L²·C.  [C] is the product of the capacity
   numerators, not Packing.lift's lcm, so [u] differs from
   Ignorance.expected_scw's. *)
let expected_scw_scaled dist ~caps =
  let c = Array.fold_left (fun acc q -> Bigint.mul acc (Rational.num q)) Bigint.one caps in
  let u = Array.map (fun q -> Bigint.div (Bigint.mul c (Rational.den q)) (Rational.num q)) caps in
  let scale = Load_dist.scale dist in
  Load_dist.expect_scaled dist
    ~over:(Bigint.mul (Bigint.mul scale scale) c)
    (Load_dist.Sum_sq_weighted u)

(* The lattice kernels against the generic rational path, which
   decodes every state: the max relative load and SCw, over all of the
   capacities and, when there are two or more links, over all but the
   last (the phantom-link rule). *)
let check_kernels name dist caps =
  let m = Array.length caps in
  let prefixes = if m > 1 then [ caps; Array.sub caps 0 (m - 1) ] else [ caps ] in
  List.iter
    (fun caps ->
      let what = Printf.sprintf "%s, %d caps" name (Array.length caps) in
      Alcotest.check check_q (what ^ ": lattice max = generic expect")
        (Load_dist.expect dist (fun loads -> Congestion.max_relative_load ~loads ~caps))
        (Congestion.expected_max_relative_load dist ~caps);
      Alcotest.check check_q (what ^ ": lattice SCw = generic expect")
        (Load_dist.expect dist (scw_of_loads ~caps))
        (expected_scw_scaled dist ~caps))
    prefixes

(* Every lattice case is pinned the same way: the expectation matches
   the seed bit for bit, the masses sum to one (through both
   [total_probability] and [iter]), [size] is the seed's count of
   distinct load vectors, and the lattice kernels match the generic
   rational path. *)
let check_lattice name g p =
  let dist = Load_dist.of_mixed g p in
  let total = Load_dist.total_probability dist in
  Alcotest.check check_q (name ^ ": total probability") Rational.one total;
  let summed = ref Rational.zero in
  Load_dist.iter dist (fun _ prob -> summed := Rational.add !summed prob);
  Alcotest.check check_q (name ^ ": iter sums to total_probability") total !summed;
  Alcotest.(check int) (name ^ ": size = seed load vectors") (seed_states g p) (Load_dist.size dist);
  Alcotest.check check_q (name ^ ": expectation") (seed_expected_max g p)
    (Congestion.expected_max_congestion g p);
  check_kernels name dist (Game.capacity_row g 0)

(* A row by stick-breaking with a fresh denominator 2..7 per cut, so
   entries carry different denominators and zeros are common. *)
let stick_row rng m =
  let rest = ref Rational.one in
  Array.init m (fun l ->
      if l = m - 1 then !rest
      else begin
        let d = Prng.Rng.int_in rng 2 7 in
        let x = Rational.mul !rest (Rational.of_ints (Prng.Rng.int_in rng 0 d) d) in
        rest := Rational.sub !rest x;
        x
      end)

let fractional_weight rng = Rational.of_ints (Prng.Rng.int_in rng 1 9) (Prng.Rng.int_in rng 2 7)

let test_fractional_weights () =
  let rng = Prng.Rng.create 0x1A77 in
  for trial = 1 to 300 do
    let n = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
    (* Two weight draws per game keep classes merging. *)
    let pool = [| fractional_weight rng; fractional_weight rng |] in
    let g =
      Game.kp
        ~weights:(Array.init n (fun _ -> pool.(Prng.Rng.int rng 2)))
        ~capacities:(Array.init m (fun _ -> Prng.Rng.positive_rational rng ~num_bound:5 ~den_bound:3))
    in
    check_lattice (Printf.sprintf "fractional weights, trial %d" trial) g
      (random_profile rng ~kind:(trial mod 4) g)
  done

let test_mixed_row_denominators () =
  let rng = Prng.Rng.create 0xD3A0 in
  for trial = 1 to 300 do
    let n = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
    let g =
      if trial mod 2 = 0 then random_kp rng ~n ~m
      else
        Game.kp
          ~weights:(Array.init n (fun _ -> fractional_weight rng))
          ~capacities:(Array.init m (fun _ -> Rational.of_int (1 + Prng.Rng.int rng 5)))
    in
    (* Rows repeat across users now and then, so classes share a row
       while other classes bring their own denominators. *)
    let first = stick_row rng m in
    let p = Array.init n (fun _ -> if Prng.Rng.bool rng then Array.copy first else stick_row rng m) in
    check_lattice (Printf.sprintf "mixed row denominators, trial %d" trial) g p
  done

(* Weights (2^40 + k)/3 scale to integers near 2^40 with L = 3, so the
   radix is near 2^42 and a second-link load pushes the packed key past
   max_int. *)
let test_big_keys () =
  let rng = Prng.Rng.create 0xB16 in
  let base = 1 lsl 40 in
  for trial = 1 to 40 do
    let n = Prng.Rng.int_in rng 2 4 in
    let g =
      Game.kp
        ~weights:(Array.init n (fun _ -> Rational.of_ints (base + Prng.Rng.int rng 4) 3))
        ~capacities:[| Rational.one; Rational.two; Rational.of_int 3 |]
    in
    check_lattice (Printf.sprintf "big keys, trial %d" trial) g (random_profile rng ~kind:(trial mod 4) g)
  done;
  (* One fixed instance that certainly holds a key past max_int: all
     four users may sit on the last packed link. *)
  let g =
    Game.kp ~weights:(Array.make 4 (Rational.of_ints (base + 1) 3))
      ~capacities:[| Rational.one; Rational.two; Rational.of_int 3 |]
  in
  check_lattice "big keys, uniform" g (Mixed.uniform g);
  (* Two users on three links put the key space (T + 1)^2 on either
     side of max_int: 2^62 - 2^32 + 1 for weights 2^30 - 1 (the native
     lane), 2^62 for 2^30 - 1 and 2^30 (one past max_int) and
     2^62 + 2^32 + 1 for 2^30 (the exact lane). *)
  List.iter
    (fun (w0, w1) ->
      let g =
        Game.kp
          ~weights:[| Rational.of_int w0; Rational.of_int w1 |]
          ~capacities:[| Rational.one; Rational.two; Rational.of_int 3 |]
      in
      let name = Printf.sprintf "key space near max_int, weights %d %d" w0 w1 in
      check_lattice (name ^ ", uniform") g (Mixed.uniform g);
      check_lattice (name ^ ", random") g (random_profile rng ~kind:2 g))
    [ ((1 lsl 30) - 1, (1 lsl 30) - 1); ((1 lsl 30) - 1, 1 lsl 30); (1 lsl 30, 1 lsl 30) ]

(* Admission sits exactly at max_int on the DP's two bounds and on
   the expectation's.  Each pair below shares its load structure and
   its state count, with the key space (T + 1)^(m-1), the common
   denominator Π_c b_c^{n_c} or a kernel's den·T^p·max u at max_int in
   the first instance and at max_int + 1 in the second.  The lanes
   agree on every value, so the lane is observed through allocation:
   the native loops box nothing per state, while the exact ones box
   at least a key (or load) and a mass (four words) for every state.
   The sanitizer is disarmed around the measurement, since armed each
   native loop is also re-derived on Bigints. *)
let test_admission_bounds () =
  let r = Rational.of_ints in
  let words run =
    let armed = !Sanitize.enabled in
    Sanitize.enabled := false;
    Fun.protect
      ~finally:(fun () -> Sanitize.enabled := armed)
      (fun () ->
        let before = Gc.minor_words () in
        let result = run () in
        (Gc.minor_words () -. before, result))
  in
  let apart name (inside, states) (outside, states') =
    Alcotest.(check int) (name ^ ": same state count") states states';
    if outside -. inside < 4. *. float_of_int states then
      Alcotest.failf "%s: %.0f minor words at max_int, %.0f past it, for %d states" name inside outside
        states
  in
  let dp g p = words (fun () -> Load_dist.size (Load_dist.of_mixed g p)) in
  let pair name (inside_g, inside_p) (outside_g, outside_p) =
    check_lattice (name ^ " at max_int") inside_g inside_p;
    check_lattice (name ^ " past max_int") outside_g outside_p;
    apart name (dp inside_g inside_p) (dp outside_g outside_p)
  in
  (* The expectation's own bound, den·T^p·max u (p = 1 for the max, 2
     for the sum of squares), on native lattices: the exact loop boxes
     each state's loads and mass.  Every capacity is 1/u_l, so the
     kernels read the reciprocal numerators u_l, as Congestion's do. *)
  let max_weighted = ("Max_weighted", fun u -> Load_dist.Max_weighted u)
  and sum_sq_weighted = ("Sum_sq_weighted", fun u -> Load_dist.Sum_sq_weighted u) in
  let kernel_pair name kernels (inside_g, inside_p) (outside_g, outside_p) =
    check_lattice (name ^ " at max_int") inside_g inside_p;
    check_lattice (name ^ " past max_int") outside_g outside_p;
    let expect kernel g p =
      let d = Load_dist.of_mixed g p in
      let u = Array.map (fun c -> Rational.num (Rational.inv c)) (Game.capacity_row g 0) in
      let allocated, _ = words (fun () -> Load_dist.expect_scaled d ~over:Bigint.one (kernel u)) in
      (allocated, Load_dist.size d)
    in
    List.iter
      (fun (kernel_name, kernel) ->
        apart (name ^ ", " ^ kernel_name) (expect kernel inside_g inside_p)
          (expect kernel outside_g outside_p))
      kernels
  in
  (* m = 2, T = 2^62 - 2 and then 2^62 - 1: ten unit-scaled powers of
     two and one weight that dwarfs them, so all 2^11 subsets have
     distinct loads. *)
  let key_game big =
    Game.kp
      ~weights:(Array.init 11 (fun i -> Rational.of_int (if i < 10 then 1 lsl i else big)))
      ~capacities:[| Rational.one; Rational.two |]
  in
  let key_inside = key_game (max_int - 1024) and key_outside = key_game (max_int - 1023) in
  pair "key space" (key_inside, Mixed.uniform key_inside) (key_outside, Mixed.uniform key_outside);
  (* m = 16, weights 1, 2, 4: user 0 on three links, users 1 and 2 on
     all sixteen, with row denominators 3·715827883·2147483647 = 2^62 - 1
     and then 4·2^30·2^30 = 2^62. *)
  let m = 16 in
  let den_game =
    Game.kp
      ~weights:[| Rational.one; Rational.two; Rational.of_int 4 |]
      ~capacities:(Array.init m (fun l -> Rational.of_int (l + 1)))
  in
  let spread b = Array.init m (fun l -> if l < m - 1 then r 1 b else r (b - m + 1) b) in
  let three head = Array.init m (fun l -> if l < 3 then head.(l) else Rational.zero) in
  let inside = [| three [| r 1 3; r 1 3; r 1 3 |]; spread 715827883; spread 2147483647 |] in
  let outside = [| three [| r 1 4; r 1 4; r 1 2 |]; spread (1 lsl 30); spread (1 lsl 30) |] in
  pair "denominator" (den_game, inside) (den_game, outside);
  (* One user of weight 1 (T = 1, so T^p = 1 for both kernels) on
     sixteen links with row denominator b, and reciprocal capacities
     U, 1, …, 1: b·U = 3·715827883·2147483647 = max_int, then
     2^31·2^31 = 2^62; sixteen states either side.  Only link 0 reads
     U, and it has mass 1, so every sum stays near 2^32 on both sides
     and the exact loop allocates as much on one side as on the other. *)
  let spread_game b cap =
    let caps = Array.init m (fun l -> if l = 0 then r 1 cap else Rational.one) in
    (Game.kp ~weights:[| Rational.one |] ~capacities:caps, [| spread b |])
  in
  kernel_pair "kernel bound, T = 1" [ max_weighted; sum_sq_weighted ]
    (spread_game (3 * 715827883) 2147483647)
    (spread_game (1 lsl 31) (1 lsl 31));
  (* A 0/1 row (den = 1): one user of weight T on link 1 of two, with
     u_0 = 3·715827883 and T = 2^31 - 1, so the max kernel's bound
     T·u_0 is max_int, then 2^31·2^31 = 2^62.  The sum is T on both
     sides.  (The sum of squares' bound T²·u_0 is past max_int on both.) *)
  let point_game w cap =
    let g = Game.kp ~weights:[| Rational.of_int w |] ~capacities:[| r 1 cap; Rational.one |] in
    (g, [| [| Rational.zero; Rational.one |] |])
  in
  kernel_pair "kernel bound, den = 1" [ max_weighted ]
    (point_game ((1 lsl 31) - 1) (3 * 715827883))
    (point_game (1 lsl 31) (1 lsl 31))

(* The participation shape of Ignorance.demand_dist: m real links plus
   a phantom "absent" link; user i is on its link with probability
   [presence] and absent otherwise. *)
let test_phantom_participation () =
  let rng = Prng.Rng.create 0xFA27 in
  List.iter
    (fun presence ->
      for trial = 1 to 60 do
        let n = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
        let g =
          Game.kp
            ~weights:(Array.init n (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 5)))
            ~capacities:(Array.make (m + 1) Rational.one)
        in
        let p =
          Array.init n (fun _ ->
              let row = Array.make (m + 1) Rational.zero in
              row.(Prng.Rng.int rng m) <- presence;
              row.(m) <- Rational.sub Rational.one presence;
              row)
        in
        check_lattice
          (Printf.sprintf "phantom link, presence %s, trial %d" (Rational.to_string presence) trial)
          g p
      done)
    [ Rational.of_ints 1 3; Rational.of_ints 3 4 ]

(* Capacities with coprime numerators > 1 and denominators other than
   1, so the reciprocal capacities need a common denominator C > 1 and
   every u_l carries its capacity's denominator. *)
let test_rational_capacities () =
  let rng = Prng.Rng.create 0xCA95 in
  let caps = [| Rational.of_ints 7 2; Rational.of_ints 11 3; Rational.of_ints 13 5 |] in
  for trial = 1 to 100 do
    let n = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
    let g =
      Game.kp
        ~weights:
          (Array.init n (fun _ ->
               if Prng.Rng.bool rng then fractional_weight rng
               else Rational.of_int (1 + Prng.Rng.int rng 3)))
        ~capacities:(Array.sub caps 0 m)
    in
    check_lattice (Printf.sprintf "rational capacities, trial %d" trial) g
      (random_profile rng ~kind:(trial mod 4) g)
  done;
  (* A native lattice whose kernels are past their bound: reciprocal
     capacities (2^40 + l)/3 make every u_l near 2^40, and twelve users
     on three links have den = 3^12 and T = 24, so den·T·u_l is above
     2^63 and both expectations run on Bigints. *)
  let g =
    Game.kp
      ~weights:(Array.init 12 (fun i -> Rational.of_int (1 + (i mod 3))))
      ~capacities:(Array.init 3 (fun l -> Rational.of_ints 3 ((1 lsl 40) + l)))
  in
  check_kernels "reciprocal capacities near 2^40" (Load_dist.of_mixed g (Mixed.uniform g))
    (Game.capacity_row g 0)

(* ------------------------------------------------------------------ *)
(* Degenerate lattices and the kernel's contract                       *)

(* A game has at least two links, so the one-link shape is pinned two
   ways.  Rows that put every user on one link make a point mass (key
   0 on the last link, key T on the first); and one capacity over a
   two-link distribution is a one-coordinate max, whose expectation is
   E[load_0]/c_0 = Σ_i p_i0·w_i/c_0 by linearity. *)
let test_one_link () =
  let weights = [| Rational.of_ints 3 2; Rational.of_int 2; Rational.of_ints 5 3 |] in
  let caps = [| Rational.of_ints 7 2; Rational.of_ints 11 3 |] in
  let g = Game.kp ~weights ~capacities:caps in
  let total = Rational.sum_array weights in
  List.iter
    (fun l ->
      let p = Mixed.of_pure g (Array.make 3 l) in
      let dist = Load_dist.of_mixed g p in
      Alcotest.(check int) (Printf.sprintf "all on link %d: one state" l) 1 (Load_dist.size dist);
      Alcotest.check check_q
        (Printf.sprintf "all on link %d: total / c" l)
        (Rational.div total caps.(l))
        (Congestion.expected_max_congestion g p);
      check_kernels (Printf.sprintf "all on link %d" l) dist caps)
    [ 0; 1 ];
  let rows =
    [| [| Rational.of_ints 1 3; Rational.of_ints 2 3 |]; [| Rational.half; Rational.half |];
       [| Rational.of_ints 4 5; Rational.of_ints 1 5 |] |]
  in
  let dist = Load_dist.of_mixed g rows in
  let first = ref Rational.zero in
  Array.iteri (fun i row -> first := Rational.add !first (Rational.mul row.(0) weights.(i))) rows;
  Alcotest.check check_q "one capacity: E[load_0]/c_0"
    (Rational.div !first caps.(0))
    (Congestion.expected_max_relative_load dist ~caps:[| caps.(0) |]);
  check_kernels "one capacity" dist caps

(* One user: one state per supported link, E[max load/c] = Σ_l p_l·w/c_l. *)
let test_one_user () =
  let w = Rational.of_ints 5 3 in
  let caps = [| Rational.of_ints 7 2; Rational.of_ints 11 3; Rational.of_ints 13 5 |] in
  let g = Game.kp ~weights:[| w |] ~capacities:caps in
  let row = [| Rational.of_ints 1 6; Rational.zero; Rational.of_ints 5 6 |] in
  let dist = Load_dist.of_mixed g [| row |] in
  Alcotest.(check int) "n = 1: one state per supported link" 2 (Load_dist.size dist);
  let closed = ref Rational.zero in
  Array.iteri (fun l q -> closed := Rational.add !closed (Rational.div (Rational.mul q w) caps.(l))) row;
  Alcotest.check check_q "n = 1: Σ p_l·w/c_l" !closed (Congestion.expected_max_congestion g [| row |]);
  check_kernels "n = 1" dist caps

(* Two 40-user classes (weights 1 and 2) on three links: 861·861
   candidate states per step, but every key is a load vector summing
   to 120, so at most 121² keys; the merged count is checked against a
   direct enumeration of the class splits. *)
let test_heavy_merge () =
  let n = 80 and total = 120 in
  let g =
    Game.kp
      ~weights:(Array.init n (fun i -> if i < n / 2 then Rational.one else Rational.two))
      ~capacities:[| Rational.one; Rational.two; Rational.of_int 3 |]
  in
  let dist = Load_dist.of_mixed g (Mixed.uniform g) in
  let seen = Array.make_matrix (total + 1) (total + 1) false in
  let count = ref 0 in
  Combinat.iter_compositions ~total:(n / 2) ~parts:3 (fun a ->
      let a0 = a.(0) and a1 = a.(1) in
      Combinat.iter_compositions ~total:(n / 2) ~parts:3 (fun b ->
          let l0 = a0 + (2 * b.(0)) and l1 = a1 + (2 * b.(1)) in
          if not seen.(l0).(l1) then begin
            seen.(l0).(l1) <- true;
            incr count
          end));
  Alcotest.(check int) "two classes" 2 (Load_dist.classes dist);
  Alcotest.(check int) "size = distinct split sums" !count (Load_dist.size dist);
  Alcotest.check check_q "total probability" Rational.one (Load_dist.total_probability dist);
  check_kernels "heavy merge" dist (Game.capacity_row g 0)

(* Both max-relative-load functions refuse empty capacities and
   capacities past the load coordinates, and so do the expectation
   kernels. *)
let test_caps_contract () =
  let g =
    Game.kp ~weights:[| Rational.one; Rational.two |] ~capacities:[| Rational.one; Rational.two |]
  in
  let dist = Load_dist.of_mixed g (Mixed.uniform g) in
  let loads = [| Rational.one; Rational.two |] in
  List.iter
    (fun caps ->
      let m = Array.length caps in
      Alcotest.check_raises
        (Printf.sprintf "max_relative_load, %d caps" m)
        (Invalid_argument
           (Printf.sprintf "Congestion.max_relative_load: %d capacities for 2 load coordinates" m))
        (fun () -> ignore (Congestion.max_relative_load ~loads ~caps));
      Alcotest.check_raises
        (Printf.sprintf "expected_max_relative_load, %d caps" m)
        (Invalid_argument
           (Printf.sprintf "Congestion.expected_max_relative_load: %d capacities for 2 load coordinates" m))
        (fun () -> ignore (Congestion.expected_max_relative_load dist ~caps)))
    [ [||]; [| Rational.one; Rational.one; Rational.one |] ];
  (* The kernels underneath keep the same contract themselves. *)
  let three = Array.make 3 Bigint.one in
  List.iter
    (fun (what, message, kernel) ->
      Alcotest.check_raises what (Invalid_argument message) (fun () ->
          ignore (Load_dist.expect_scaled dist ~over:Bigint.one kernel)))
    [
      ("Max_weighted, no weights", "Load_dist.expect_scaled: Max_weighted of no weights",
       Load_dist.Max_weighted [||]);
      ("Max_weighted, 3 weights", "Load_dist.expect_scaled: 3 weights for 2 load coordinates",
       Load_dist.Max_weighted three);
      ("Sum_sq_weighted, 3 weights", "Load_dist.expect_scaled: 3 weights for 2 load coordinates",
       Load_dist.Sum_sq_weighted three);
    ]

(* ------------------------------------------------------------------ *)
(* Mixed.Eval vs the seed Mixed formulas                               *)

let test_eval_differential () =
  let rng = Prng.Rng.create 0xE7A1 in
  for trial = 1 to 2_000 do
    let n = Prng.Rng.int_in rng 1 4 and m = Prng.Rng.int_in rng 2 3 in
    let g =
      if Prng.Rng.bool rng then random_kp rng ~n ~m else random_non_kp rng ~n ~m
    in
    let p = random_profile rng ~kind:(trial mod 3) g in
    let e = Mixed.Eval.make g p in
    for l = 0 to m - 1 do
      Alcotest.check check_q "expected traffic" (seed_expected_traffic g p l)
        (Mixed.Eval.expected_traffic e l)
    done;
    for i = 0 to n - 1 do
      Alcotest.check check_q "min latency" (seed_min_latency g p i)
        (Mixed.Eval.min_latency e i);
      for l = 0 to m - 1 do
        Alcotest.check check_q "latency on link" (seed_latency_on_link g p i l)
          (Mixed.Eval.latency_on_link e i l)
      done
    done;
    Alcotest.check check_q "SC1" (seed_social_cost1 g p) (Mixed.Eval.social_cost1 e);
    Alcotest.check check_q "SC2" (seed_social_cost2 g p) (Mixed.Eval.social_cost2 e);
    if seed_is_nash g p <> Mixed.Eval.is_nash e then
      Alcotest.failf "trial %d: Eval.is_nash disagrees with the seed predicate" trial;
    (* The one-shot Mixed functions now ride a transient Eval; they
       must still match the seed scans bit for bit. *)
    if seed_is_nash g p <> Mixed.is_nash g p then
      Alcotest.failf "trial %d: one-shot Mixed.is_nash drifted" trial
  done

(* Profiles that actually ARE equilibria: the closed-form FMNE and
   every enumerated pure NE, on random games of both belief shapes. *)
let test_eval_is_nash_on_equilibria () =
  let rng = Prng.Rng.create 0x4E54 in
  let seen_nash = ref 0 in
  for _ = 1 to 300 do
    let n = Prng.Rng.int_in rng 2 3 and m = Prng.Rng.int_in rng 2 3 in
    let g =
      if Prng.Rng.bool rng then random_kp rng ~n ~m else random_non_kp rng ~n ~m
    in
    let check p =
      let agree = Bool.equal (seed_is_nash g p) (Mixed.Eval.is_nash (Mixed.Eval.make g p)) in
      Alcotest.(check bool) "Eval agrees with seed on an equilibrium profile" true agree;
      if seed_is_nash g p then incr seen_nash
    in
    (match Algo.Fully_mixed.compute g with Some p -> check p | None -> ());
    List.iter (fun ne -> check (Mixed.of_pure g ne)) (Algo.Enumerate.pure_nash g)
  done;
  if !seen_nash = 0 then Alcotest.fail "no equilibrium profile was ever exercised"

let () =
  Alcotest.run "load_dist"
    [
      ( "dp",
        [
          Alcotest.test_case "10k-game differential vs seed enumerator" `Slow
            test_dp_differential;
          Alcotest.test_case "exchangeable users beyond the seed limit" `Quick
            test_beyond_seed_limit;
          Alcotest.test_case "shared combinatorics regression" `Quick
            test_shared_combinatorics_regression;
          Alcotest.test_case "state limit guard" `Quick test_state_limit_guard;
          Alcotest.test_case "distinct weights fill the frontier" `Quick
            test_distinct_weights_frontier;
          Alcotest.test_case "fractional weights scale the lattice" `Quick
            test_fractional_weights;
          Alcotest.test_case "rows with mixed denominators and zeros" `Quick
            test_mixed_row_denominators;
          Alcotest.test_case "packed keys beyond max_int" `Quick test_big_keys;
          Alcotest.test_case "lane admission at max_int" `Quick test_admission_bounds;
          Alcotest.test_case "phantom-link participation profiles" `Quick
            test_phantom_participation;
          Alcotest.test_case "rational capacities need a common denominator" `Quick
            test_rational_capacities;
          Alcotest.test_case "one link: point masses and one capacity" `Quick test_one_link;
          Alcotest.test_case "one user, one state per supported link" `Quick test_one_user;
          Alcotest.test_case "heavy merge stays within the lattice" `Quick test_heavy_merge;
          Alcotest.test_case "max relative load capacity contract" `Quick test_caps_contract;
        ] );
      ( "eval",
        [
          Alcotest.test_case "2k-game differential vs seed formulas" `Slow
            test_eval_differential;
          Alcotest.test_case "is_nash on real equilibria" `Quick
            test_eval_is_nash_on_equilibria;
        ] );
    ]
