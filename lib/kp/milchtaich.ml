open Numeric

module Weighted = struct
  type t = { weights : int array; cost : Rational.t array array array }

  let total_weight weights = Array.fold_left ( + ) 0 weights

  let make ~weights cost =
    let players = Array.length weights in
    if players = 0 then invalid_arg "Milchtaich.Weighted.make: no players";
    Array.iter
      (fun w -> if w <= 0 then invalid_arg "Milchtaich.Weighted.make: weights must be positive")
      weights;
    if Array.length cost <> players then
      invalid_arg "Milchtaich.Weighted.make: one cost table per player required";
    let links = Array.length cost.(0) in
    if links < 2 then invalid_arg "Milchtaich.Weighted.make: at least two links required";
    let loads = total_weight weights in
    Array.iter
      (fun rows ->
        if Array.length rows <> links then invalid_arg "Milchtaich.Weighted.make: ragged link dimension";
        Array.iter
          (fun col ->
            if Array.length col <> loads + 1 then
              invalid_arg "Milchtaich.Weighted.make: table must cover loads 0..total weight";
            for k = 1 to loads do
              if Rational.compare col.(k) col.(k - 1) < 0 then
                invalid_arg "Milchtaich.Weighted.make: costs must be non-decreasing in load"
            done)
          rows)
      cost;
    { weights = Array.copy weights; cost = Array.map (Array.map Array.copy) cost }

  let players t = Array.length t.weights
  let links t = Array.length t.cost.(0)

  let loads t p =
    let acc = Array.make (links t) 0 in
    Array.iteri (fun i l -> acc.(l) <- acc.(l) + t.weights.(i)) p;
    acc

  let latency t p i = t.cost.(i).(p.(i)).((loads t p).(p.(i)))

  (* The one improvement relation, read against the link loads of [p]:
     player [i] strictly gains by moving to [l] when its cost there, at
     the link's load plus its own weight, is below its current cost. *)
  let improves t loads p i l =
    let x = p.(i) in
    l <> x
    && Rational.compare t.cost.(i).(l).(loads.(l) + t.weights.(i)) t.cost.(i).(x).(loads.(x)) < 0

  let is_nash t p =
    let loads = loads t p and m = links t in
    let rec stable k =
      k >= players t * m || ((not (improves t loads p (k / m) (k mod m))) && stable (k + 1))
    in
    stable 0

  (* The exhaustive NE scans walk the links^players profiles on the one
     odometer, within Algo.Enumerate's budget. *)
  let scan who t f =
    let players = players t and links = links t in
    ignore
      (Combinat.search_space ~who:("Milchtaich." ^ who) ~what:"pure profiles"
         ~budget:Algo.Enumerate.budget links players);
    Combinat.iter_odometer ~digits:players ~base:links f

  let pure_nash t =
    let acc = ref [] in
    scan "Weighted.pure_nash" t (fun p -> if is_nash t p then acc := Array.copy p :: !acc);
    List.rev !acc

  let exists_pure_nash t =
    let exception Found in
    try
      scan "Weighted.exists_pure_nash" t (fun p -> if is_nash t p then raise Found);
      false
    with Found -> true

  (* A Game_graph cursor over incrementally kept loads. *)
  let has_better_response_cycle t =
    let cur = Array.make (links t) 0 in
    let reset p = Array.blit (loads t p) 0 cur 0 (links t) in
    let shift i ~src ~dst =
      cur.(src) <- cur.(src) - t.weights.(i);
      cur.(dst) <- cur.(dst) + t.weights.(i)
    in
    Algo.Game_graph.search ~who:"Milchtaich.Weighted.has_better_response_cycle"
      ~users:(players t) ~links:(links t)
      { reset; improves = improves t cur; shift }
    <> None

  let random rng ~weights ~links ~value_bound =
    let loads = total_weight weights in
    let monotone_column () =
      let acc = ref Rational.zero in
      Array.init (loads + 1) (fun k ->
          if k > 0 then
            acc :=
              Rational.add !acc
                (Prng.Rng.positive_rational rng ~num_bound:value_bound ~den_bound:value_bound);
          !acc)
    in
    make ~weights
      (Array.init (Array.length weights) (fun _ ->
           Array.init links (fun _ -> monotone_column ())))

  (* Local search that destroys equilibria one at a time: while the
     instance has a pure NE, pick one, pick a player in it, and lower
     that player's cost on some other link just below its current
     latency (repairing monotonicity), so the chosen profile stops being
     an equilibrium.  Blind rejection sampling essentially never finds
     such instances (random monotone tables have a pure NE with
     overwhelming probability), whereas this walk succeeds quickly. *)
  let kill_equilibrium rng t ne =
    let i = Prng.Rng.int rng (players t) in
    let m = links t in
    let l' = (ne.(i) + 1 + Prng.Rng.int rng (m - 1)) mod m in
    let here = latency t ne i in
    let target_load = (loads t ne).(l') + t.weights.(i) in
    (* Aim strictly below the current latency; 3/4 keeps values positive. *)
    let v = Rational.mul here (Rational.of_ints 3 4) in
    let col = t.cost.(i).(l') in
    col.(target_load) <- v;
    for k = 0 to target_load - 1 do
      if Rational.compare col.(k) v > 0 then col.(k) <- v
    done;
    for k = target_load + 1 to Array.length col - 1 do
      if Rational.compare col.(k) v < 0 then col.(k) <- v
    done

  let search_no_pure_nash rng ~weights ~links ~attempts =
    let t = ref (random rng ~weights ~links ~value_bound:8) in
    let rec go k =
      if k > attempts then None
      else
        match pure_nash !t with
        | [] -> Some (!t, k)
        | nes ->
          (* Occasional restarts escape regions where killing one
             equilibrium keeps creating another. *)
          if k mod 512 = 0 then t := random rng ~weights ~links ~value_bound:8
          else kill_equilibrium rng !t (Prng.Rng.pick_list rng nes);
          go (k + 1)
    in
    go 1
end

module Unweighted = struct
  (* Validates the occupancy-indexed table [cost.(i).(l).(k-1)], then
     folds it into the unit-weight game: each column gains a copy of its
     first entry in front, so load k reads the cost at k occupants.
     Load 0 is never read (a player always counts itself), and the copy
     keeps the column monotone. *)
  let make cost =
    let players = Array.length cost in
    if players = 0 then invalid_arg "Milchtaich.Unweighted.make: no players";
    let links = Array.length cost.(0) in
    if links < 2 then invalid_arg "Milchtaich.Unweighted.make: at least two links required";
    Array.iter
      (fun rows ->
        if Array.length rows <> links then
          invalid_arg "Milchtaich.Unweighted.make: ragged link dimension";
        Array.iter
          (fun col ->
            if Array.length col <> players then
              invalid_arg "Milchtaich.Unweighted.make: table must cover congestions 1..players";
            for k = 1 to players - 1 do
              if Rational.compare col.(k) col.(k - 1) < 0 then
                invalid_arg "Milchtaich.Unweighted.make: costs must be non-decreasing in congestion"
            done)
          rows)
      cost;
    Weighted.make ~weights:(Array.make players 1)
      (Array.map (Array.map (fun col -> Array.append [| col.(0) |] col)) cost)

  let random rng ~players ~links ~value_bound =
    let monotone_column () =
      let acc = ref Rational.zero in
      Array.init players (fun _ ->
          acc := Rational.add !acc (Prng.Rng.positive_rational rng ~num_bound:value_bound ~den_bound:value_bound);
          !acc)
    in
    make (Array.init players (fun _ -> Array.init links (fun _ -> monotone_column ())))
end
