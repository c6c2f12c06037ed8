(* Property tests for the shared combinatorics module
   (Numeric.Combinat): binomials against Pascal's rule, multinomials
   against the factorial ratio, composition enumeration against its
   closed-form count, and the overflow guard on native counts; the
   checked power, the odometer, and the exhaustive-search guard every
   budgeted entry point raises through. *)

open Numeric

let check_big =
  Alcotest.testable (fun ppf n -> Format.pp_print_string ppf (Bigint.to_string n)) Bigint.equal

let test_choose_pascal () =
  (* C(n, k) = C(n-1, k-1) + C(n-1, k), edges C(n, 0) = C(n, n) = 1. *)
  for n = 1 to 40 do
    Alcotest.check check_big "left edge" Bigint.one (Combinat.choose n 0);
    Alcotest.check check_big "right edge" Bigint.one (Combinat.choose n n);
    for k = 1 to n - 1 do
      Alcotest.check check_big
        (Printf.sprintf "Pascal at (%d, %d)" n k)
        (Bigint.add (Combinat.choose (n - 1) (k - 1)) (Combinat.choose (n - 1) k))
        (Combinat.choose n k)
    done
  done;
  Alcotest.check check_big "out of range below" Bigint.zero (Combinat.choose 5 (-1));
  Alcotest.check check_big "out of range above" Bigint.zero (Combinat.choose 5 6);
  (* C(68, 34) overflows a native int but not a Bigint. *)
  Alcotest.check check_big "large binomial"
    (Bigint.of_string "28453041475240576740")
    (Combinat.choose 68 34)

let test_factorial () =
  let acc = ref Bigint.one in
  for n = 1 to 30 do
    acc := Bigint.mul !acc (Bigint.of_int n);
    Alcotest.check check_big (Printf.sprintf "%d!" n) !acc (Combinat.factorial n)
  done

(* multinomial = (Σ parts)! / Π parts! checked by cross-multiplication
   (no Bigint division needed). *)
let test_multinomial_factorial_ratio () =
  let rng = Prng.Rng.create 0xC0B1 in
  for _ = 1 to 500 do
    let k = Prng.Rng.int_in rng 1 4 in
    let parts = Array.init k (fun _ -> Prng.Rng.int rng 7) in
    let total = Array.fold_left ( + ) 0 parts in
    let denom =
      Array.fold_left (fun acc p -> Bigint.mul acc (Combinat.factorial p)) Bigint.one parts
    in
    Alcotest.check check_big "multinomial · Π parts! = total!"
      (Combinat.factorial total)
      (Bigint.mul (Combinat.multinomial parts) denom)
  done;
  Alcotest.check check_big "empty multinomial" Bigint.one (Combinat.multinomial [||]);
  Alcotest.check_raises "negative part"
    (Invalid_argument "Combinat.multinomial: negative part") (fun () ->
      ignore (Combinat.multinomial [| 2; -1 |]))

let test_compositions_enumeration () =
  (* iter_compositions must produce exactly [compositions] vectors, each
     summing to [total], in strictly increasing lexicographic order. *)
  for total = 0 to 7 do
    for parts = 1 to 4 do
      let seen = ref [] in
      Combinat.iter_compositions ~total ~parts (fun c ->
          Alcotest.(check int)
            (Printf.sprintf "parts length (total=%d, parts=%d)" total parts)
            parts (Array.length c);
          Alcotest.(check int) "composition sums to total" total (Array.fold_left ( + ) 0 c);
          Array.iter (fun e -> Alcotest.(check bool) "non-negative part" true (e >= 0)) c;
          seen := Array.copy c :: !seen);
      let seen = List.rev !seen in
      Alcotest.(check int)
        (Printf.sprintf "count = C(%d+%d-1, %d-1)" total parts parts)
        (Combinat.compositions_int ~total ~parts)
        (List.length seen);
      let rec strictly_increasing = function
        | a :: (b :: _ as rest) ->
          compare (Array.to_list a) (Array.to_list b) < 0 (* lint: allow R1 — int lists *)
          && strictly_increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "lexicographic order, no duplicates" true (strictly_increasing seen)
    done
  done

let test_compositions_closed_form () =
  (* The count equals the stars-and-bars binomial. *)
  for total = 0 to 10 do
    for parts = 1 to 5 do
      Alcotest.check check_big "stars and bars"
        (Combinat.choose (total + parts - 1) (parts - 1))
        (Combinat.compositions ~total ~parts)
    done
  done

let test_compositions_int_overflow_guard () =
  (* C(10^6 + 15, 15) has ~90 digits: the native-count guard must trip
     with a message naming the overflow, not wrap silently. *)
  (match Combinat.compositions_int ~total:1_000_000 ~parts:16 with
  | exception Invalid_argument msg ->
    if
      not
        (let needle = "overflows" in
         let rec contains i =
           i + String.length needle <= String.length msg
           && (String.sub msg i (String.length needle) = needle || contains (i + 1))
         in
         contains 0)
    then Alcotest.failf "guard message %S does not mention overflow" msg
  | n -> Alcotest.failf "expected an overflow failure, got %d" n);
  (* Just inside the native range still works. *)
  Alcotest.(check int) "single part" 1 (Combinat.compositions_int ~total:1_000_000 ~parts:1);
  Alcotest.(check int) "two parts" 1_000_001 (Combinat.compositions_int ~total:1_000_000 ~parts:2)

let test_argument_guards () =
  Alcotest.check_raises "choose: negative n" (Invalid_argument "Combinat.choose: negative n")
    (fun () -> ignore (Combinat.choose (-1) 0));
  Alcotest.check_raises "factorial: negative"
    (Invalid_argument "Combinat.factorial: negative n") (fun () ->
      ignore (Combinat.factorial (-1)));
  Alcotest.check_raises "compositions: no parts"
    (Invalid_argument "Combinat.compositions: need at least one part") (fun () ->
      ignore (Combinat.compositions ~total:3 ~parts:0));
  Alcotest.check_raises "iter: negative total"
    (Invalid_argument "Combinat.iter_compositions: negative total") (fun () ->
      Combinat.iter_compositions ~total:(-1) ~parts:2 (fun _ -> ()))

let test_pow_boundaries () =
  let check name want b e = Alcotest.(check (option int)) name want (Combinat.pow b e) in
  check "max_int^1 is exactly max_int" (Some max_int) max_int 1;
  check "max_int^2 overflows" None max_int 2;
  check "2^61 fits" (Some (1 lsl 61)) 2 61;
  check "2^62 is one step past max_int" None 2 62;
  check "3^39 fits" (Some 4052555153018976267) 3 39;
  check "3^40 overflows" None 3 40;
  check "4^32 overflows instead of wrapping to 0" None 4 32;
  check "e = 0" (Some 1) 7 0;
  check "0^0" (Some 1) 0 0;
  check "0^e" (Some 0) 0 5;
  check "b = 1 at a huge exponent" (Some 1) 1 max_int;
  Alcotest.check_raises "negative exponent" (Invalid_argument "Combinat.pow: negative argument")
    (fun () -> ignore (Combinat.pow 2 (-1)));
  Alcotest.(check int) "space at its budget" 8
    (Combinat.search_space ~who:"t" ~what:"things" ~budget:8 2 3);
  Alcotest.check_raises "space one past its budget"
    (Invalid_argument "t: 2^3 things exceed the limit 7") (fun () ->
      ignore (Combinat.search_space ~who:"t" ~what:"things" ~budget:7 2 3))

let test_odometer_order () =
  let seen = ref [] in
  Combinat.iter_odometer ~digits:2 ~base:3 (fun d -> seen := Array.to_list d :: !seen);
  Alcotest.(check (list (list int)))
    "last digit fastest"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 2; 1 ]; [ 2; 2 ] ]
    (List.rev !seen);
  let calls = ref 0 in
  Combinat.iter_odometer ~digits:0 ~base:3 (fun _ -> incr calls);
  Alcotest.(check int) "no digits: one empty vector" 1 !calls

(* Every exhaustive entry point on an instance just over its fixed
   budget: the guard fires before any search, so each row is cheap. *)
let test_budget_table () =
  let open Model in
  let qi = Rational.of_int in
  let game n caps = Game.of_capacities ~weights:(Array.make n Rational.one) (Array.make n caps) in
  let two = [| qi 1; qi 2 |] in
  let g24 = game 24 two and g21 = game 21 two and g20 = game 20 two in
  let g17 = game 17 two and g13 = game 13 two in
  let g7 = game 7 [| qi 1; qi 2; qi 3 |] in
  let bayes =
    Kp.Bayesian.make ~capacities:two
      ~types:(Array.make 10 [ (qi 1, Rational.of_ints 1 2); (qi 2, Rational.of_ints 1 2) ])
  in
  let rng = Prng.Rng.create 1 in
  let mu = Kp.Milchtaich.Unweighted.random rng ~players:32 ~links:4 ~value_bound:6 in
  let mw = Kp.Milchtaich.Weighted.random rng ~weights:(Array.make 32 1) ~links:4 ~value_bound:6 in
  let p24 = Mixed.uniform g24 in
  let rows =
    [
      ("Social.opt1: 2^24 pure profiles exceed the limit 10000000", fun () -> ignore (Social.opt1 g24));
      ("Social.opt2: 2^24 pure profiles exceed the limit 10000000", fun () -> ignore (Social.opt2 g24));
      ( "Social.opt1: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Social.ratio1 g24 p24) );
      ( "Social.opt2: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Social.ratio2 g24 p24) );
      ( "Enumerate.pure_nash: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Algo.Enumerate.pure_nash g24) );
      ( "Enumerate.count: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Algo.Enumerate.count g24) );
      ( "Enumerate.exists: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Algo.Enumerate.exists g24) );
      ( "Enumerate.pure_nash: 2^24 pure profiles exceed the limit 10000000",
        fun () -> ignore (Algo.Enumerate.extremal_nash g24 ~cost:(fun g p -> Pure.social_cost1 g p)) );
      ( "Game_graph.find_cycle: 2^21 pure profiles exceed the limit 2000000",
        fun () -> ignore (Algo.Game_graph.find_cycle g21 ~kind:Algo.Game_graph.Better_response) );
      ( "Game_graph.find_cycle: 2^21 pure profiles exceed the limit 2000000",
        fun () -> ignore (Algo.Game_graph.find_cycle g21 ~kind:Algo.Game_graph.Best_response) );
      ( "Congestion.optimum: 2^20 pure profiles exceed the limit 1000000",
        fun () -> ignore (Congestion.optimum g20) );
      ( "Ignorance.opt_scw: 2^24 pure profiles exceed the limit 10000000",
        fun () ->
          ignore
            (Experiments.Ignorance.run ~seed:1 ~n:24 ~m:2 ~states:2 ~presences:[ Rational.one ]
               ~trials:1 ()) );
      ( "Potential.find_nonzero_square: 2^17 pure profiles exceed the limit 100000",
        fun () -> ignore (Algo.Potential.find_nonzero_square g17) );
      ( "Potential.find_nonzero_square: 2^17 pure profiles exceed the limit 100000",
        fun () -> ignore (Algo.Potential.is_exact_potential_game g17) );
      ( "Correlated.best_social_cost: 2^13 pure profiles exceed the limit 4096",
        fun () -> ignore (Algo.Correlated.best_social_cost g13) );
      ( "Correlated.worst_social_cost: 2^13 pure profiles exceed the limit 4096",
        fun () -> ignore (Algo.Correlated.worst_social_cost g13) );
      ( "Support_enum.all_nash: 7^7 support profiles exceed the limit 200000",
        fun () -> ignore (Algo.Support_enum.all_nash g7) );
      ( "Bayesian.exists_pure_nash: 2^20 strategies exceed the limit 1000000",
        fun () -> ignore (Kp.Bayesian.exists_pure_nash bayes) );
      ( "Milchtaich.Weighted.has_better_response_cycle: 4^32 pure profiles exceed the limit \
         2000000",
        fun () -> ignore (Kp.Milchtaich.Weighted.has_better_response_cycle mu) );
      ( "Milchtaich.Weighted.pure_nash: 4^32 pure profiles exceed the limit 10000000",
        fun () -> ignore (Kp.Milchtaich.Weighted.pure_nash mw) );
      ( "Milchtaich.Weighted.exists_pure_nash: 4^32 pure profiles exceed the limit 10000000",
        fun () -> ignore (Kp.Milchtaich.Weighted.exists_pure_nash mw) );
    ]
  in
  List.iter (fun (msg, f) -> Alcotest.check_raises msg (Invalid_argument msg) f) rows

let () =
  Alcotest.run "combinat"
    [
      ( "combinat",
        [
          Alcotest.test_case "binomials satisfy Pascal's rule" `Quick test_choose_pascal;
          Alcotest.test_case "factorials" `Quick test_factorial;
          Alcotest.test_case "multinomial = factorial ratio" `Quick
            test_multinomial_factorial_ratio;
          Alcotest.test_case "composition enumeration matches its count" `Quick
            test_compositions_enumeration;
          Alcotest.test_case "compositions closed form" `Quick test_compositions_closed_form;
          Alcotest.test_case "native count overflow guard" `Quick
            test_compositions_int_overflow_guard;
          Alcotest.test_case "argument guards" `Quick test_argument_guards;
          Alcotest.test_case "checked power at its boundaries" `Quick test_pow_boundaries;
          Alcotest.test_case "odometer order" `Quick test_odometer_order;
          Alcotest.test_case "every exhaustive entry point's budget" `Quick test_budget_table;
        ] );
    ]
