open Model
open Numeric

type result = { value : Rational.t; distribution : (Pure.profile * Rational.t) list }

(* λ_i(σ) − λ_i(σ[i→b]): user i's regret for following recommendation
   σ_i instead of b, at profile σ.  Evaluated against a view positioned
   at σ, both latencies are O(1) load lookups; building one view per
   support profile up front replaces the seed's O(n) load rescan under
   every one of the n·m² constraint coefficients. *)
let deviation_gain_v v i b = Rational.sub (View.latency v i) (View.latency_on_link v i b)

let profiles g =
  let acc = ref [] in
  Social.iter_profiles g (fun p -> acc := Array.copy p :: !acc);
  Array.of_list (List.rev !acc)

let is_correlated_equilibrium g dist =
  let total = ref Rational.zero in
  List.iter
    (fun (p, prob) ->
      Pure.validate g p;
      if Rational.sign prob < 0 then
        invalid_arg "Correlated.is_correlated_equilibrium: negative probability";
      total := Rational.add !total prob)
    dist;
  if not (Rational.equal !total Rational.one) then
    invalid_arg "Correlated.is_correlated_equilibrium: probabilities must sum to 1";
  let support =
    List.filter_map
      (fun (p, prob) ->
        if Rational.is_zero prob then None else Some (p, prob, View.of_profile g p))
      dist
  in
  let n = Game.users g and m = Game.links g in
  let rec check_user i =
    if i >= n then true
    else begin
      let rec check_pair a b =
        if a >= m then true
        else if b >= m then check_pair (a + 1) 0
        else if a = b then check_pair a (b + 1)
        else begin
          (* Σ_{σ: σ_i = a} x_σ (λ_i(σ) − λ_i(σ[i→b])) ≤ 0 *)
          let acc = ref Rational.zero in
          List.iter
            (fun (p, prob, v) ->
              if p.(i) = a then
                acc := Rational.add !acc (Rational.mul prob (deviation_gain_v v i b)))
            support;
          Rational.sign !acc <= 0 && check_pair a (b + 1)
        end
      in
      check_pair 0 0 && check_user (i + 1)
    end
  in
  check_user 0

let ce_constraints g all =
  let n = Game.users g and m = Game.links g in
  let nvars = Array.length all in
  let views = Array.map (View.of_profile g) all in
  let constraints = ref [] in
  (* Normalisation: Σ x = 1. *)
  constraints :=
    Simplex.{ coeffs = Array.make nvars Rational.one; relation = Eq; rhs = Rational.one }
    :: !constraints;
  for i = 0 to n - 1 do
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        if a <> b then begin
          let coeffs =
            Array.init nvars (fun j ->
                if all.(j).(i) = a then deviation_gain_v views.(j) i b else Rational.zero)
          in
          if Array.exists (fun q -> not (Rational.is_zero q)) coeffs then
            constraints :=
              Simplex.{ coeffs; relation = Le; rhs = Rational.zero } :: !constraints
        end
      done
    done
  done;
  !constraints

let social_cost_objective g all =
  Array.map (fun p -> Pure.social_cost1 g p) all

let budget = 4_096

let optimise name direction g =
  ignore
    (Combinat.search_space ~who:("Correlated." ^ name) ~what:"pure profiles" ~budget
       (Game.links g) (Game.users g));
  let all = profiles g in
  let objective = social_cost_objective g all in
  let constraints = ce_constraints g all in
  let outcome =
    match direction with
    | `Min -> Simplex.minimize ~objective constraints
    | `Max -> Simplex.maximize ~objective constraints
  in
  match outcome with
  | Simplex.Optimal (value, x) ->
    let distribution =
      List.filter_map
        (fun j -> if Rational.is_zero x.(j) then None else Some (all.(j), x.(j)))
        (List.init (Array.length all) Fun.id)
    in
    { value; distribution }
  | Simplex.Infeasible ->
    (* Impossible: a Nash equilibrium always lies in the polytope. *)
    assert false
  | Simplex.Unbounded -> assert false (* the polytope is a subset of the simplex *)

let best_social_cost g = optimise "best_social_cost" `Min g
let worst_social_cost g = optimise "worst_social_cost" `Max g

let of_mixed g p =
  Mixed.validate g p;
  let acc = ref [] in
  Social.iter_profiles g (fun sigma ->
      let prob = ref Rational.one in
      Array.iteri (fun i l -> prob := Rational.mul !prob p.(i).(l)) sigma;
      if not (Rational.is_zero !prob) then acc := (Array.copy sigma, !prob) :: !acc);
  List.rev !acc
