(* Tests for the fork–join layer: determinism across worker counts,
   ordering, exception propagation, and a real parallel sweep. *)

let prop name ?(count = 50) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

let test_map_identity_scheduling () =
  let xs = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> x * x) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" domains)
        expected
        (Parallel.map_array ~domains (fun x -> x * x) xs))
    [ 1; 2; 3; 8; 200 ]

let test_map_empty () =
  Alcotest.(check int) "empty array" 0 (Array.length (Parallel.map_array ~domains:4 Fun.id [||]))

let test_map_array_order () =
  let xs = Array.init 37 string_of_int in
  let out = Parallel.map_array ~domains:4 (fun s -> s ^ "!") xs in
  Array.iteri
    (fun i s -> Alcotest.(check string) "order kept" (string_of_int i ^ "!") s)
    out

let test_invalid_domains () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Parallel: domains must be positive")
    (fun () -> ignore (Parallel.map_array ~domains:0 Fun.id [| 1 |]))

let test_exception_propagates () =
  let boom = Failure "worker exploded" in
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "domains=%d" domains)
        boom
        (fun () ->
          ignore
            (Parallel.map_array ~domains (fun x -> if x = 41 then raise boom else x) (Array.init 64 Fun.id))))
    [ 1; 4 ]

let test_map_array_more_domains_than_elements () =
  (* workers is clamped to [len], so oversubscription must change
     neither the result nor its order — and repeated runs must agree. *)
  let xs = Array.init 7 (fun i -> i * 3) in
  let serial = Array.map (fun x -> x + 1) xs in
  List.iter
    (fun domains ->
      let once = Parallel.map_array ~domains (fun x -> x + 1) xs in
      let twice = Parallel.map_array ~domains (fun x -> x + 1) xs in
      Alcotest.(check (array int)) (Printf.sprintf "domains=%d result" domains) serial once;
      Alcotest.(check (array int)) (Printf.sprintf "domains=%d repeat" domains) once twice)
    [ 8; 64; 1000 ]

let test_exception_more_domains_than_elements () =
  let boom = Failure "oversubscribed worker exploded" in
  Alcotest.check_raises "domains=64 len=5" boom (fun () ->
      ignore
        (Parallel.map_array ~domains:64
           (fun x -> if x = 2 then raise boom else x)
           (Array.init 5 Fun.id)))

let test_first_failure_in_worker_order_wins () =
  (* With workers=4 over 64 interleaved indices, index 41 belongs to
     worker 1 and index 3 to worker 3.  The contract re-raises the first
     failure in *worker* order, so worker 1's exception must win even
     though index 3 fails "earlier" in array order — and every domain
     must have been joined before the re-raise, so the two clean workers
     (0 and 2) have finished all their indices by the time we catch. *)
  let len = 64 and workers = 4 in
  let processed = Array.make len false in
  let exn_a = Failure "index 3 (worker 3)" in
  let exn_b = Failure "index 41 (worker 1)" in
  (match
     Parallel.map_array ~domains:workers
       (fun i ->
         if i = 3 then raise exn_a
         else if i = 41 then raise exn_b
         else begin
           processed.(i) <- true;
           i
         end)
       (Array.init len Fun.id)
   with
   | _ -> Alcotest.fail "expected an exception"
   | exception e -> Alcotest.(check string) "worker 1 wins" (Printexc.to_string exn_b) (Printexc.to_string e));
  for i = 0 to len - 1 do
    if i mod workers = 0 || i mod workers = 2 then
      Alcotest.(check bool) (Printf.sprintf "clean worker finished index %d" i) true processed.(i)
  done

let test_oversubscribed_machine () =
  (* More domains than the machine has: results must not depend on how
     the runtime schedules the excess. *)
  let domains = 4 * Parallel.available_domains () in
  let xs = Array.init ((2 * domains) + 3) Fun.id in
  Alcotest.(check (array int))
    (Printf.sprintf "domains=%d > available" domains)
    (Array.map (fun x -> x * 7) xs)
    (Parallel.map_array ~domains (fun x -> x * 7) xs)

let test_fork_join_direct () =
  Alcotest.(check (array int)) "worker order" [| 0; 10; 20; 30 |]
    (Parallel.fork_join ~workers:4 (fun w -> 10 * w));
  Alcotest.(check (array int)) "single worker" [| 7 |] (Parallel.fork_join ~workers:1 (fun _ -> 7));
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Parallel.fork_join: workers must be positive") (fun () ->
      ignore (Parallel.fork_join ~workers:0 (fun w -> w)))

(* Kept out-of-line so the worker's stack has a recognisable frame to
   carry through the nested re-raises. *)
let[@inline never] rec deep_boom n =
  if n = 0 then failwith "nested worker exploded" else 1 + deep_boom (n - 1)

let test_nested_fork_join_exception_backtrace () =
  (* A worker exception thrown inside an inner fork_join must cross
     BOTH joins — re-raised by the inner call on its worker domain,
     then again by the outer call — with the worker's backtrace, not
     the join loop's. *)
  let outer_saw = Array.make 2 false in
  let was_recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was_recording)
    (fun () ->
      match
        Parallel.fork_join ~workers:2 (fun w ->
            outer_saw.(w) <- true;
            if w = 1 then
              Array.fold_left ( + ) 0 (Parallel.fork_join ~workers:2 (fun u ->
                  if u = 1 then deep_boom 3 else 0))
            else 0)
      with
      | _ -> Alcotest.fail "expected the nested worker exception"
      | exception Failure msg ->
        let bt = Printexc.get_backtrace () in
        Alcotest.(check string) "inner worker failure surfaces" "nested worker exploded" msg;
        Alcotest.(check bool) "both outer workers ran" true (outer_saw.(0) && outer_saw.(1));
        Alcotest.(check bool) "backtrace survives double re-raise"
          true
          (String.length bt > 0
          && String.split_on_char '\n' bt
             |> List.exists (fun line ->
                    let has_frag frag =
                      let fl = String.length frag and ll = String.length line in
                      let rec scan i = i + fl <= ll && (String.sub line i fl = frag || scan (i + 1)) in
                      fl <= ll && scan 0
                    in
                    has_frag "deep_boom" || has_frag "test_parallel")))

(* ---------------------------------------------------------------- *)
(* Ownership sanitizer (SELFISH_OWNERSHIP)                           *)

module Ownership = Parallel.Ownership

(* Run [f] with the sanitizer forced to [enabled], restoring both the
   enable flag and the forgery hook afterwards. *)
let with_sanitizer enabled f =
  let saved_enabled = !Ownership.enabled and saved_forge = !Ownership.unsafe_forge in
  Ownership.enabled := enabled;
  Fun.protect
    ~finally:(fun () ->
      Ownership.enabled := saved_enabled;
      Ownership.unsafe_forge := saved_forge)
    f

let test_ownership_same_domain_passes () =
  with_sanitizer true (fun () ->
      let owner = Ownership.record () in
      Alcotest.(check int) "record is self" (Ownership.self_id ()) owner;
      Ownership.guard "test widget" owner (* must not raise *))

let test_ownership_violation_message () =
  with_sanitizer true (fun () ->
      Ownership.unsafe_forge := Some 4242;
      let owner = Ownership.record () in
      Alcotest.(check int) "forged owner recorded" 4242 owner;
      Alcotest.check_raises "cross-domain mutation pinned"
        (Ownership.Violation
           (Printf.sprintf "SELFISH_OWNERSHIP: test widget created on domain 4242 mutated from \
                            domain %d" (Ownership.self_id ())))
        (fun () -> Ownership.guard "test widget" owner))

let test_ownership_disabled_is_noop () =
  with_sanitizer false (fun () ->
      (* A blatantly foreign owner: no check runs when disabled. *)
      Ownership.guard "test widget" (-1))

let test_ownership_real_cross_domain () =
  (* Worker 0 of a fork-join runs in the calling domain and may touch
     the structure; worker 1 runs on a fresh domain and must trip the
     guard.  This exercises the sanitizer against real domains rather
     than the forgery hook. *)
  with_sanitizer true (fun () ->
      let owner = Ownership.record () in
      let verdicts =
        Parallel.map_array ~domains:2
          (fun w ->
            ignore w;
            match Ownership.guard "test widget" owner with
            | () -> false
            | exception Ownership.Violation _ -> true)
          [| 0; 1 |]
      in
      Alcotest.(check (array bool)) "only the spawned domain trips" [| false; true |] verdicts)

let test_available_domains () =
  Alcotest.(check bool) "at least one" true (Parallel.available_domains () >= 1)

let test_existence_sweep_parallel_deterministic () =
  let run domains =
    Experiments.Existence.run ~domains ~seed:11 ~ns:[ 2; 3 ] ~ms:[ 2; 3 ] ~trials:5
      ~weights:(Experiments.Generators.Integer_weights 4)
      ~beliefs:(Experiments.Generators.Shared_space { states = 2; cap_bound = 4; grain = 3 })
      ()
  in
  Alcotest.(check bool) "serial equals parallel" true (run 1 = run 4)

let parallel_properties =
  [
    prop "map agrees with List.map for any worker count"
      QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 0 50) (int_bound 1000)))
      (fun (domains, xs) ->
        let xs = Array.of_list xs in
        Parallel.map_array ~domains (fun x -> x + 1) xs = Array.map (fun x -> x + 1) xs);
  ]

let suite =
  [
    ("map identical across scheduling", `Quick, test_map_identity_scheduling);
    ("map empty", `Quick, test_map_empty);
    ("map_array keeps order", `Quick, test_map_array_order);
    ("invalid domains", `Quick, test_invalid_domains);
    ("exceptions propagate", `Quick, test_exception_propagates);
    ("map_array with more domains than elements", `Quick, test_map_array_more_domains_than_elements);
    ("exception with more domains than elements", `Quick, test_exception_more_domains_than_elements);
    ("first failure in worker order wins", `Quick, test_first_failure_in_worker_order_wins);
    ("oversubscribed beyond available_domains", `Quick, test_oversubscribed_machine);
    ("fork_join direct", `Quick, test_fork_join_direct);
    ("nested fork_join exception backtrace", `Quick, test_nested_fork_join_exception_backtrace);
    ("available domains", `Quick, test_available_domains);
    ("existence sweep deterministic under parallelism", `Slow, test_existence_sweep_parallel_deterministic);
  ]

let ownership_suite =
  [
    ("same-domain mutation passes", `Quick, test_ownership_same_domain_passes);
    ("violation message via forgery hook", `Quick, test_ownership_violation_message);
    ("disabled sanitizer is a no-op", `Quick, test_ownership_disabled_is_noop);
    ("real cross-domain violation", `Quick, test_ownership_real_cross_domain);
  ]

let () =
  Alcotest.run "parallel"
    [ ("unit", suite); ("ownership", ownership_suite); ("properties", parallel_properties) ]
