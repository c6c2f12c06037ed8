open Numeric

let iter_profiles g f = Combinat.iter_odometer ~digits:(Game.users g) ~base:(Game.links g) f

let profile_count g = Combinat.pow (Game.links g) (Game.users g)

let budget = 10_000_000

(* Exhaustive optimisation walks the profiles in odometer order through
   an incremental [View.fold]: consecutive profiles differ by an
   amortised O(1) number of single-user moves, so the per-profile cost
   is the O(n) cost evaluation against O(1) loads — the seed path
   rebuilt every load with an O(n) scan, i.e. O(n²) per profile.
   Strict improvement keeps the first minimum in odometer order. *)
let optimum name cost g =
  ignore
    (Combinat.search_space ~who:("Social." ^ name) ~what:"pure profiles" ~budget (Game.links g)
       (Game.users g));
  let best =
    View.fold g ~init:None ~f:(fun acc v ->
        let c = cost v in
        match acc with
        | Some (b, _) when Rational.compare b c <= 0 -> acc
        | _ -> Some (c, View.profile v))
  in
  match best with
  | Some (v, p) -> (v, p)
  | None -> assert false (* the sweep visits at least one profile *)

let opt1 g = optimum "opt1" View.social_cost1 g
let opt2 g = optimum "opt2" View.social_cost2 g

let ratio1 g p =
  let opt, _ = opt1 g in
  Rational.div (Mixed.social_cost1 g p) opt

let ratio2 g p =
  let opt, _ = opt2 g in
  Rational.div (Mixed.social_cost2 g p) opt

(* Branch-and-bound over users in decreasing weight order.  The bound
   argument: once user [i] is placed on link [ℓ], its latency
   load(ℓ)/c^ℓ_i can only grow as later users join ℓ, so the partial
   cost (sum or max over placed users, at current loads) lower-bounds
   every completion.  Heavy users first makes early partial costs
   large, so pruning bites. *)
let optimum_bb name cost_of_partial g =
  let n = Game.users g and m = Game.links g in
  ignore name;
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Rational.compare (Game.weight g b) (Game.weight g a) in
      if c <> 0 then c else Int.compare a b)
    order;
  let loads = Array.make m Rational.zero in
  let assignment = Array.make n 0 in
  let best_value = ref None and best_profile = ref [||] in
  let beats_best v =
    match !best_value with Some b -> Rational.compare v b < 0 | None -> true
  in
  let rec place depth =
    if depth = n then begin
      let v = cost_of_partial g order assignment loads depth in
      if beats_best v then begin
        best_value := Some v;
        best_profile := Array.copy assignment
      end
    end
    else begin
      let user = order.(depth) in
      for l = 0 to m - 1 do
        loads.(l) <- Rational.add loads.(l) (Game.weight g user);
        assignment.(user) <- l;
        let lower = cost_of_partial g order assignment loads (depth + 1) in
        if beats_best lower then place (depth + 1);
        loads.(l) <- Rational.sub loads.(l) (Game.weight g user)
      done
    end
  in
  place 0;
  match !best_value with
  | Some v -> (v, !best_profile)
  | None -> assert false

let partial_sc1 g order assignment loads placed =
  let acc = ref Rational.zero in
  for d = 0 to placed - 1 do
    let i = order.(d) in
    acc := Rational.add !acc (Rational.div loads.(assignment.(i)) (Game.capacity g i assignment.(i)))
  done;
  !acc

let partial_sc2 g order assignment loads placed =
  let acc = ref Rational.zero in
  for d = 0 to placed - 1 do
    let i = order.(d) in
    acc := Rational.max !acc (Rational.div loads.(assignment.(i)) (Game.capacity g i assignment.(i)))
  done;
  !acc

let opt1_bb g = optimum_bb "opt1_bb" partial_sc1 g
let opt2_bb g = optimum_bb "opt2_bb" partial_sc2 g
