(* Tests for the classical expected-maximum-congestion social cost on
   the KP special case, including the fully-mixed-NE conjecture of the
   paper's references [7]/[14] checked on KP instances. *)

open Model
open Numeric

let qi = Rational.of_int
let q = Rational.of_ints
let check_q = Alcotest.testable Rational.pp Rational.equal

let prop name ?(count = 60) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

let kp_fixture () = Game.kp ~weights:[| qi 2; qi 1 |] ~capacities:[| qi 2; qi 1 |]

(* n runs to 5 now that the expectation is the load-distribution DP
   (the seed m^n sweep kept these properties at toy sizes). *)
let random_kp seed =
  let rng = Prng.Rng.create seed in
  let n = Prng.Rng.int_in rng 2 5 and m = Prng.Rng.int_in rng 2 3 in
  ( rng,
    Experiments.Generators.game rng ~n ~m
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 5 }) )

let test_max_congestion_hand () =
  let g = kp_fixture () in
  (* ⟨0,0⟩: link0 load 3, congestion 3/2; link1 empty. *)
  Alcotest.check check_q "pile" (q 3 2) (Congestion.max_congestion g [| 0; 0 |]);
  (* ⟨0,1⟩: max(2/2, 1/1) = 1. *)
  Alcotest.check check_q "split" (qi 1) (Congestion.max_congestion g [| 0; 1 |]);
  (* ⟨1,0⟩: max(1/2, 2/1) = 2. *)
  Alcotest.check check_q "swapped" (qi 2) (Congestion.max_congestion g [| 1; 0 |])

let test_requires_kp () =
  let g = Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 1; qi 2 |]; [| qi 2; qi 1 |] |] in
  Alcotest.check_raises "non-KP"
    (Invalid_argument "Congestion.max_congestion: the classical social cost needs a KP instance")
    (fun () -> ignore (Congestion.max_congestion g [| 0; 1 |]))

let test_expected_max_hand () =
  let g = kp_fixture () in
  (* user0 mixes 1/2–1/2, user1 pure on link0:
     E = 1/2·cong(0,0) + 1/2·cong(1,0) = 1/2·3/2 + 1/2·2 = 7/4. *)
  let p = [| [| q 1 2; q 1 2 |]; [| Rational.one; Rational.zero |] |] in
  Alcotest.check check_q "expectation" (q 7 4) (Congestion.expected_max_congestion g p)

let test_expected_max_of_pure () =
  let g = kp_fixture () in
  let sigma = [| 0; 1 |] in
  Alcotest.check check_q "degenerate expectation"
    (Congestion.max_congestion g sigma)
    (Congestion.expected_max_congestion g (Mixed.of_pure g sigma))

let test_optimum () =
  let g = kp_fixture () in
  let v, sigma = Congestion.optimum g in
  Alcotest.check check_q "makespan optimum" (qi 1) v;
  Alcotest.(check (array int)) "argmin" [| 0; 1 |] sigma

(* n users, m = 2: 2^n realisations, past the seed enumerator's 10^6
   cap from n = 20 on.  With unit weights and unit capacities the
   expectation has the independent closed form
   Σ_k C(n,k)/2^n · max(k, n-k), computable with n + 1 exact terms.
   The common denominator 2^n is a native int at n = 20 and 61 and is
   not at n = 62, so the DP runs on both of its lanes. *)
let test_expected_max_beyond_seed_limit () =
  let choose n k =
    let c = ref Rational.one in
    for i = 1 to k do
      c := Rational.div (Rational.mul !c (qi (n - k + i))) (qi i)
    done;
    !c
  in
  List.iter
    (fun n ->
      let g =
        Game.kp ~weights:(Array.make n Rational.one) ~capacities:[| Rational.one; Rational.one |]
      in
      let scale = Rational.inv (Rational.of_bigint (Bigint.pow (Bigint.of_int 2) n)) in
      let closed_form =
        Rational.sum
          (List.init (n + 1) (fun k ->
               Rational.mul (Rational.mul (choose n k) scale) (qi (Stdlib.max k (n - k)))))
      in
      Alcotest.check check_q
        (Printf.sprintf "binomial closed form, n = %d" n)
        closed_form
        (Congestion.expected_max_congestion g (Mixed.uniform g)))
    [ 20; 61; 62 ]

let congestion_properties =
  [
    prop "expected max congestion >= max congestion of the optimum" seed_gen (fun seed ->
        let rng, g = random_kp seed in
        let p =
          Array.init (Game.users g) (fun _ ->
              Prng.Rng.positive_simplex rng ~dim:(Game.links g) ~grain:(Game.links g + 2))
        in
        let opt, _ = Congestion.optimum g in
        Rational.compare (Congestion.expected_max_congestion g p) opt >= 0);
    prop "optimum lower-bounds every pure profile" seed_gen (fun seed ->
        (* It is the brute-force minimum, with the first argmin in odometer order. *)
        let _, g = random_kp seed in
        let best = ref None in
        Social.iter_profiles g (fun sigma ->
            let c = Congestion.max_congestion g sigma in
            match !best with
            | Some (b, _) when Rational.compare b c <= 0 -> ()
            | _ -> best := Some (c, Array.copy sigma));
        let v, p = Congestion.optimum g and v', p' = Option.get !best in
        Rational.equal v v' && Pure.equal p p');
    prop "FMNE conjecture of [7]/[14] on KP instances" seed_gen (fun seed ->
        (* Among the equilibria we can enumerate (all pure NE), none has
           a larger expected maximum congestion than the fully mixed
           equilibrium, when the latter exists — the classical
           fully-mixed-NE conjecture restricted to this class. *)
        let _, g = random_kp seed in
        match Algo.Fully_mixed.compute g with
        | None -> true
        | Some fm ->
          let fm_cost = Congestion.expected_max_congestion g fm in
          List.for_all
            (fun ne ->
              Rational.compare (Congestion.max_congestion g ne) fm_cost <= 0)
            (Algo.Enumerate.pure_nash g));
    prop "SC2 of the paper lower-bounds the classical SC on KP instances" seed_gen
      (fun seed ->
        (* On KP instances all users share the objective latencies, so
           the max individual cost (SC2) of a pure profile is exactly
           the congestion of the most loaded *used* link — never more
           than the max over all links. *)
        let rng, g = random_kp seed in
        let sigma = Array.init (Game.users g) (fun _ -> Prng.Rng.int rng (Game.links g)) in
        Rational.compare (Pure.social_cost2 g sigma) (Congestion.max_congestion g sigma) <= 0);
  ]

let suite =
  [
    ("max congestion hand case", `Quick, test_max_congestion_hand);
    ("requires KP", `Quick, test_requires_kp);
    ("expected max hand case", `Quick, test_expected_max_hand);
    ("expectation of a pure profile", `Quick, test_expected_max_of_pure);
    ("makespan optimum", `Quick, test_optimum);
    ("expectation beyond the seed limit", `Quick, test_expected_max_beyond_seed_limit);
  ]

let () = Alcotest.run "congestion" [ ("unit", suite); ("properties", congestion_properties) ]
