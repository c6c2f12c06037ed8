(* Tests for the KP baseline and the player-specific (Milchtaich)
   substrate: the LPT-style solver, nashification, the subsumption of
   the KP-model under point beliefs (E13), Milchtaich's existence
   theorem for unweighted games and their fold into unit-weight
   weighted games, the no-pure-NE search for weighted games (E7), and
   the embedding cross-validation. *)

open Model
open Numeric

let qi = Rational.of_int
let q = Rational.of_ints

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let seed_gen = QCheck2.Gen.(int_bound 1_000_000)

let random_kp seed ~n_hi ~m_hi =
  let rng = Prng.Rng.create seed in
  let n = Prng.Rng.int_in rng 2 n_hi and m = Prng.Rng.int_in rng 2 m_hi in
  ( rng,
    Experiments.Generators.game rng ~n ~m
      ~weights:(Experiments.Generators.Rational_weights 6)
      ~beliefs:(Experiments.Generators.Shared_point { cap_bound = 6 }) )

(* ------------------------------------------------------------------ *)
(* KP solver                                                           *)

let test_kp_solve_hand_case () =
  (* Classic related links: capacities 3 and 1, weights 4, 2, 2. *)
  let g = Game.kp ~weights:[| qi 4; qi 2; qi 2 |] ~capacities:[| qi 3; qi 1 |] in
  let sigma = Kp.Kp_nash.solve g in
  Alcotest.(check bool) "NE" true (Pure.is_nash g sigma);
  (* LPT: 4 → link0 (4/3 < 4); 2 → link0 (2 vs 6/3=2: tie, link0 first);
     2 → link1 (2 vs 8/3). *)
  Alcotest.(check (array int)) "placement" [| 0; 0; 1 |] sigma

let test_kp_solve_rejects_non_kp () =
  let g = Game.of_capacities ~weights:[| qi 1; qi 1 |] [| [| qi 1; qi 2 |]; [| qi 2; qi 1 |] |] in
  Alcotest.check_raises "non-KP rejected"
    (Invalid_argument "Kp_nash.solve: game is not a KP instance") (fun () ->
      ignore (Kp.Kp_nash.solve g))

let kp_properties =
  [
    prop "KP solver returns a pure NE" seed_gen (fun seed ->
        let _, g = random_kp seed ~n_hi:8 ~m_hi:5 in
        Pure.is_nash g (Kp.Kp_nash.solve g));
    prop "point beliefs subsume the KP-model (Section 2, E13)" seed_gen (fun seed ->
        (* A game whose users all hold the same point belief must agree,
           on every quantity we compute, with the directly constructed
           KP instance. *)
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 5 and m = Prng.Rng.int_in rng 2 3 in
        let caps = Array.init m (fun _ -> qi (Prng.Rng.int_in rng 1 6)) in
        let weights = Array.init n (fun _ -> qi (Prng.Rng.int_in rng 1 6)) in
        let st = State.make caps in
        let via_beliefs =
          Game.make ~weights ~beliefs:(Array.init n (fun _ -> Belief.certain st))
        in
        let direct = Game.kp ~weights ~capacities:caps in
        Game.is_kp via_beliefs
        && List.map Array.to_list (Algo.Enumerate.pure_nash via_beliefs)
           = List.map Array.to_list (Algo.Enumerate.pure_nash direct));
  ]

(* ------------------------------------------------------------------ *)
(* Milchtaich unweighted: the unit-weight weighted game                *)

module W = Kp.Milchtaich.Weighted

let unweighted_fixture () =
  (* Two players, two links; player 0 strongly prefers link 0, player 1
     prefers link 1 unless shared. cost.(i).(l).(k-1). *)
  Kp.Milchtaich.Unweighted.make
    [|
      [| [| qi 1; qi 4 |]; [| qi 3; qi 5 |] |];
      [| [| qi 3; qi 5 |]; [| qi 1; qi 4 |] |];
    |]

let test_unweighted_validation () =
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Milchtaich.Unweighted.make: costs must be non-decreasing in congestion")
    (fun () ->
      ignore
        (Kp.Milchtaich.Unweighted.make
           [|
             [| [| qi 2; qi 1 |]; [| qi 1; qi 1 |] |];
             [| [| qi 1; qi 1 |]; [| qi 1; qi 1 |] |];
           |]));
  Alcotest.check_raises "no players" (Invalid_argument "Milchtaich.Unweighted.make: no players")
    (fun () -> ignore (Kp.Milchtaich.Unweighted.make [||]))

let test_unweighted_nash () =
  let t = unweighted_fixture () in
  let nes = List.map Array.to_list (W.pure_nash t) in
  Alcotest.(check bool) "split is NE" true (List.mem [ 0; 1 ] nes);
  (* The swapped split is also stable: moving onto an occupied link
     costs 4 > 3 for both players. *)
  Alcotest.(check bool) "swap is also NE" true (List.mem [ 1; 0 ] nes);
  Alcotest.(check bool) "piling up is not" false (List.mem [ 0; 0 ] nes);
  Alcotest.(check int) "exactly the two splits" 2 (List.length nes);
  Alcotest.(check bool) "exists" true (W.exists_pure_nash t)

let test_unweighted_latency () =
  let t = unweighted_fixture () in
  Alcotest.(check bool) "alone cost" true (Rational.equal (W.latency t [| 0; 1 |] 0) (qi 1));
  Alcotest.(check bool) "shared cost" true (Rational.equal (W.latency t [| 0; 0 |] 0) (qi 4))

(* The profile-indexed game that the unit-weight fold and the shared
   cycle search replaced, kept as an oracle: [cost i l k] is player
   [i]'s cost on link [l] at load [k], every load is recounted from the
   profile, and a move to [l] is read at [l]'s load plus the mover's
   weight.  Unit weights make the load the occupancy. *)
module Occupancy = struct
  let load weights p l =
    let acc = ref 0 in
    Array.iteri (fun i lk -> if lk = l then acc := !acc + weights.(i)) p;
    !acc

  let latency cost weights p i = cost i p.(i) (load weights p p.(i))

  let improving_moves cost weights ~links p i =
    let here = latency cost weights p i in
    List.filter
      (fun l -> l <> p.(i) && Rational.compare (cost i l (load weights p l + weights.(i))) here < 0)
      (List.init links Fun.id)

  let is_nash cost weights ~links p =
    List.for_all
      (fun i -> improving_moves cost weights ~links p i = [])
      (List.init (Array.length p) Fun.id)

  let rec profiles ~players ~links =
    if players = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.init links (fun l -> l :: rest))
        (profiles ~players:(players - 1) ~links)

  (* Plain DFS over profiles as lists; [on_path] holds the current
     stack, [done_] every fully explored profile. *)
  let has_cycle cost weights ~links =
    let players = Array.length weights in
    let done_ = Hashtbl.create 64 in
    let rec dfs on_path p =
      if List.mem p on_path then true
      else if Hashtbl.mem done_ p then false
      else begin
        let a = Array.of_list p in
        let cyclic =
          List.exists
            (fun i ->
              List.exists
                (fun l ->
                  let q = Array.copy a in
                  q.(i) <- l;
                  dfs (p :: on_path) (Array.to_list q))
                (improving_moves cost weights ~links a i))
            (List.init players Fun.id)
        in
        Hashtbl.replace done_ p ();
        cyclic
      end
    in
    List.exists (dfs []) (profiles ~players ~links)
end

(* An occupancy-indexed table [table.(i).(l).(k-1)] as an oracle cost. *)
let occupancy_cost table i l k = table.(i).(l).(k - 1)

(* Draws the table [Unweighted.random] draws, from the same stream. *)
let random_table rng ~players ~links ~value_bound =
  let column () =
    let acc = ref Rational.zero in
    Array.init players (fun _ ->
        acc :=
          Rational.add !acc
            (Prng.Rng.positive_rational rng ~num_bound:value_bound ~den_bound:value_bound);
        !acc)
  in
  Array.init players (fun _ -> Array.init links (fun _ -> column ()))

let test_folded_matches_oracle () =
  let cyclic = ref 0 and acyclic = ref 0 in
  for seed = 1 to 1000 do
    let rng = Prng.Rng.create seed in
    let players = Prng.Rng.int_in rng 2 4 and links = Prng.Rng.int_in rng 2 3 in
    let cost = random_table rng ~players ~links ~value_bound:6 in
    let t = Kp.Milchtaich.Unweighted.make cost in
    let sorted l = List.sort compare l in
    let ones = Array.make players 1 and oracle = occupancy_cost cost in
    let expected =
      List.filter
        (fun p -> Occupancy.is_nash oracle ones ~links (Array.of_list p))
        (Occupancy.profiles ~players ~links)
    in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "seed %d: NE set" seed)
      (sorted expected)
      (sorted (List.map Array.to_list (W.pure_nash t)));
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: exists" seed)
      (expected <> []) (W.exists_pure_nash t);
    let cycle = Occupancy.has_cycle oracle ones ~links in
    if cycle then incr cyclic else incr acyclic;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: cycle" seed)
      cycle (W.has_better_response_cycle t);
    (* Unweighted.random keeps its draws: the same stream gives the
       same latencies on every profile. *)
    let fresh () = Prng.Rng.create seed in
    let drawn = Kp.Milchtaich.Unweighted.random (fresh ()) ~players ~links ~value_bound:6 in
    let again =
      Kp.Milchtaich.Unweighted.make (random_table (fresh ()) ~players ~links ~value_bound:6)
    in
    List.iter
      (fun p ->
        let p = Array.of_list p in
        for i = 0 to players - 1 do
          Alcotest.(check bool) "random draws the same table" true
            (Rational.equal (W.latency drawn p i) (W.latency again p i));
          Alcotest.(check bool) "latency at the occupancy" true
            (Rational.equal (W.latency t p i) (Occupancy.latency oracle ones p i))
        done)
      (Occupancy.profiles ~players ~links)
  done;
  (* Both verdicts occur, so the cycle comparison is not vacuous. *)
  Alcotest.(check bool) "some tables are cyclic" true (!cyclic > 0);
  Alcotest.(check bool) "some tables are acyclic" true (!acyclic > 0)

let unweighted_properties =
  [
    prop "unweighted player-specific games always have a pure NE (Milchtaich 1996)"
      seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let players = Prng.Rng.int_in rng 2 4 and links = Prng.Rng.int_in rng 2 4 in
        let t = Kp.Milchtaich.Unweighted.random rng ~players ~links ~value_bound:6 in
        W.exists_pure_nash t);
    ("folded game matches occupancy oracle", `Quick, test_folded_matches_oracle);
  ]

let test_unweighted_cycles_exist () =
  (* Milchtaich: unweighted games lack the finite improvement property;
     our searcher finds a cyclic instance quickly (seeded). *)
  let rng = Prng.Rng.create 123 in
  let found = ref false in
  let attempts = ref 0 in
  while (not !found) && !attempts < 500 do
    incr attempts;
    let t = Kp.Milchtaich.Unweighted.random rng ~players:3 ~links:3 ~value_bound:6 in
    if W.has_better_response_cycle t then found := true
  done;
  Alcotest.(check bool) "cyclic unweighted instance found" true !found

(* ------------------------------------------------------------------ *)
(* Milchtaich weighted: the no-pure-NE phenomenon (E7)                 *)

let test_weighted_validation () =
  Alcotest.check_raises "weights positive"
    (Invalid_argument "Milchtaich.Weighted.make: weights must be positive") (fun () ->
      ignore (Kp.Milchtaich.Weighted.make ~weights:[| 0 |] [||]));
  Alcotest.check_raises "table span"
    (Invalid_argument "Milchtaich.Weighted.make: table must cover loads 0..total weight")
    (fun () ->
      ignore
        (Kp.Milchtaich.Weighted.make ~weights:[| 1; 1 |]
           [| [| [| qi 0 |]; [| qi 0 |] |]; [| [| qi 0 |]; [| qi 0 |] |] |]))

let test_weighted_no_pure_nash_search () =
  (* With three distinct weights the adaptive search finds an instance
     without any pure NE — the phenomenon of [17] that the paper
     contrasts with its own three-user existence result. *)
  let rng = Prng.Rng.create 5 in
  match Kp.Milchtaich.Weighted.search_no_pure_nash rng ~weights:[| 1; 2; 3 |] ~links:3 ~attempts:5000 with
  | None -> Alcotest.fail "expected to find a no-pure-NE weighted instance"
  | Some (t, _) ->
    Alcotest.(check bool) "really has no pure NE" false
      (Kp.Milchtaich.Weighted.exists_pure_nash t)

(* A monotone table as [Weighted.random] draws it:
   [cost.(i).(l).(load)] for loads 0..Σ weights, rising from 0. *)
let random_weighted_table rng ~weights ~links ~value_bound =
  let loads = Array.fold_left ( + ) 0 weights in
  let column () =
    let acc = ref Rational.zero in
    Array.init (loads + 1) (fun k ->
        if k > 0 then
          acc :=
            Rational.add !acc
              (Prng.Rng.positive_rational rng ~num_bound:value_bound ~den_bound:value_bound);
        !acc)
  in
  Array.init (Array.length weights) (fun _ -> Array.init links (fun _ -> column ()))

let test_weighted_matches_oracle () =
  let cyclic = ref 0 and acyclic = ref 0 in
  for seed = 1 to 500 do
    let rng = Prng.Rng.create seed in
    let players = Prng.Rng.int_in rng 2 4 and links = Prng.Rng.int_in rng 2 3 in
    let weights = Array.init players (fun _ -> Prng.Rng.int_in rng 1 3) in
    let cost = random_weighted_table rng ~weights ~links ~value_bound:6 in
    let t = W.make ~weights cost in
    let oracle i l k = cost.(i).(l).(k) in
    let sorted l = List.sort compare l in
    Alcotest.(check (list (list int)))
      (Printf.sprintf "seed %d: NE set" seed)
      (sorted
         (List.filter
            (fun p -> Occupancy.is_nash oracle weights ~links (Array.of_list p))
            (Occupancy.profiles ~players ~links)))
      (sorted (List.map Array.to_list (W.pure_nash t)));
    let cycle = Occupancy.has_cycle oracle weights ~links in
    if cycle then incr cyclic else incr acyclic;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: cycle" seed)
      cycle (W.has_better_response_cycle t);
  done;
  Alcotest.(check bool) "some tables are cyclic" true (!cyclic > 0);
  Alcotest.(check bool) "some tables are acyclic" true (!acyclic > 0)

let test_weighted_load_semantics () =
  let t =
    Kp.Milchtaich.Weighted.make ~weights:[| 1; 2 |]
      [|
        [| Array.init 4 (fun l -> qi l); Array.init 4 (fun l -> qi (2 * l)) |];
        [| Array.init 4 (fun l -> qi l); Array.init 4 (fun l -> qi (2 * l)) |];
      |]
  in
  (* Both on link 0: load 3, player 0 pays cost(3) = 3. *)
  Alcotest.(check bool) "load includes both weights" true
    (Rational.equal (Kp.Milchtaich.Weighted.latency t [| 0; 0 |] 0) (qi 3));
  Alcotest.(check bool) "split load" true
    (Rational.equal (Kp.Milchtaich.Weighted.latency t [| 0; 1 |] 1) (qi 4))

(* The two searches over one game: [find_cycle] on the belief game and
   [has_better_response_cycle] on its player-specific image. *)
let embedded_cycle_agrees g t =
  Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response <> None
  = W.has_better_response_cycle t

(* Random belief games embed acyclic, so the cyclic verdict comes from
   the E6 witnesses. *)
let test_embedding_witness_cycles () =
  List.iter
    (fun (name, g) ->
      match Kp.Embedding.to_weighted g with
      | None -> Alcotest.failf "%s: integer weights must embed" name
      | Some t ->
        Alcotest.(check bool) (name ^ ": cyclic") true (W.has_better_response_cycle t);
        Alcotest.(check bool) (name ^ ": searches agree") true (embedded_cycle_agrees g t))
    [
      ("minimised witness", Algo.Witness.better_response_cycle_game ());
      ("original witness", Algo.Witness.original_cycle_game ());
    ]

let weighted_properties =
  [
    prop "embedding: belief games and their player-specific image have identical NE sets"
      seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let n = Prng.Rng.int_in rng 2 4 and m = Prng.Rng.int_in rng 2 3 in
        let g =
          Experiments.Generators.game rng ~n ~m
            ~weights:(Experiments.Generators.Integer_weights 4)
            ~beliefs:(Experiments.Generators.Shared_space { states = 3; cap_bound = 5; grain = 4 })
        in
        match Kp.Embedding.to_weighted g with
        | None -> false (* integer weights must embed *)
        | Some t ->
          List.map Array.to_list (Algo.Enumerate.pure_nash g)
          = List.map Array.to_list (Kp.Milchtaich.Weighted.pure_nash t)
          && embedded_cycle_agrees g t);
    prop "embedding refuses non-integral weights" seed_gen (fun seed ->
        let rng = Prng.Rng.create seed in
        let g =
          Game.of_capacities
            ~weights:[| q 1 2; qi 1 |]
            [| [| qi 1; qi 2 |]; [| qi (1 + Prng.Rng.int rng 3); qi 1 |] |]
        in
        Kp.Embedding.to_weighted g = None);
  ]

let suite =
  [
    ("KP solver hand case", `Quick, test_kp_solve_hand_case);
    ("KP solver rejects non-KP", `Quick, test_kp_solve_rejects_non_kp);
    ("unweighted validation", `Quick, test_unweighted_validation);
    ("unweighted nash", `Quick, test_unweighted_nash);
    ("unweighted latency", `Quick, test_unweighted_latency);
    ("unweighted improvement cycles exist", `Quick, test_unweighted_cycles_exist);
    ("weighted validation", `Quick, test_weighted_validation);
    ("weighted no-pure-NE search (E7)", `Slow, test_weighted_no_pure_nash_search);
    ("weighted load semantics", `Quick, test_weighted_load_semantics);
    ("weighted game matches the load oracle", `Quick, test_weighted_matches_oracle);
    ("embedding: the E6 witnesses are cyclic on both sides", `Quick, test_embedding_witness_cycles);
  ]

let () =
  Alcotest.run "kp"
    [
      ("unit", suite);
      ("kp", kp_properties);
      ("unweighted", unweighted_properties);
      ("weighted", weighted_properties);
    ]
