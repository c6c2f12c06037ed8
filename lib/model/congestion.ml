open Numeric

let require_kp name g =
  if not (Game.is_kp g) then
    invalid_arg (Printf.sprintf "Congestion.%s: the classical social cost needs a KP instance" name)

let max_congestion g sigma =
  require_kp "max_congestion" g;
  Pure.validate g sigma;
  let loads = Pure.loads g sigma in
  let best = ref (Rational.div loads.(0) (Game.capacity g 0 0)) in
  for l = 1 to Game.links g - 1 do
    best := Rational.max !best (Rational.div loads.(l) (Game.capacity g 0 l))
  done;
  !best

(* The max congestion of the profile a view is positioned at: O(m)
   against the view's O(1) loads (the one-shot [max_congestion] above
   pays an O(n) load materialisation instead). *)
let max_congestion_of_view g v =
  let best = ref (Rational.div (View.load v 0) (Game.capacity g 0 0)) in
  for l = 1 to Game.links g - 1 do
    best := Rational.max !best (Rational.div (View.load v l) (Game.capacity g 0 l))
  done;
  !best

(* The expectation no longer sweeps the m^n realisations: the product
   measure is pushed forward to the distribution of the load vector
   (Load_dist), whose user-class DP merges equal-load realisations, so
   Load_dist's state limit bounds distinct load states instead of m^n.
   The result is bit-identical to the seed sweep (exact arithmetic
   throughout); test/test_load_dist.ml pins that equality
   differentially. *)
let expected_max_congestion g p =
  require_kp "expected_max_congestion" g;
  Mixed.validate g p;
  let caps = Game.capacity_row g 0 in
  let m = Game.links g in
  let dist = Load_dist.of_mixed g p in
  Load_dist.expect dist (fun loads ->
      let best = ref (Rational.div loads.(0) caps.(0)) in
      for l = 1 to m - 1 do
        best := Rational.max !best (Rational.div loads.(l) caps.(l))
      done;
      !best)

let estimate g p ~samples rng =
  require_kp "estimate" g;
  Mixed.validate g p;
  if samples <= 0 then invalid_arg "Congestion.estimate: samples must be positive";
  let samplers = Array.map Prng.Alias.of_rationals p in
  let n = Game.users g in
  let sigma = Array.make n 0 in
  (* The sample sum stays exact; one float conversion at the end, so
     the estimator's only error is sampling error, not accumulated
     rounding drift. *)
  let acc = ref Rational.zero in
  for _ = 1 to samples do
    for i = 0 to n - 1 do
      sigma.(i) <- Prng.Alias.sample samplers.(i) rng
    done;
    acc := Rational.add !acc (max_congestion g sigma)
  done;
  Rational.to_float (Rational.div !acc (Rational.of_int samples))

let budget = 1_000_000

let optimum g =
  require_kp "optimum" g;
  ignore
    (Combinat.search_space ~who:"Congestion.optimum" ~what:"pure profiles" ~budget
       (Game.links g) (Game.users g));
  let best =
    View.fold g ~init:None ~f:(fun acc v ->
        let c = max_congestion_of_view g v in
        match acc with
        | Some (b, _) when Rational.compare b c <= 0 -> acc
        | _ -> Some (c, View.profile v))
  in
  match best with
  | Some (v, p) -> (v, p)
  | None -> assert false
