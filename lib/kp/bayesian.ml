open Numeric

type t = {
  capacities : Rational.t array;
  traffics : Rational.t array array; (* traffics.(i).(k) *)
  probs : Rational.t array array; (* probs.(i).(k) *)
}

let make ~capacities ~types =
  if Array.length capacities < 2 then invalid_arg "Bayesian.make: at least two links required";
  Array.iter
    (fun c -> if Rational.sign c <= 0 then invalid_arg "Bayesian.make: capacities must be positive")
    capacities;
  if Array.length types = 0 then invalid_arg "Bayesian.make: no users";
  let traffics =
    Array.map
      (fun tys ->
        if tys = [] then invalid_arg "Bayesian.make: empty type list";
        Array.of_list (List.map fst tys))
      types
  in
  let probs = Array.map (fun tys -> Array.of_list (List.map snd tys)) types in
  Array.iter
    (Array.iter (fun w ->
         if Rational.sign w <= 0 then invalid_arg "Bayesian.make: traffics must be positive"))
    traffics;
  Array.iter
    (fun p ->
      if not (Qvec.is_distribution p) then
        invalid_arg "Bayesian.make: type probabilities must form a distribution")
    probs;
  { capacities = Array.copy capacities; traffics; probs }

let users t = Array.length t.traffics
let links t = Array.length t.capacities
let type_count t i = Array.length t.traffics.(i)

type strategy = int array array

let expected_foreign_load t s ~user l =
  let acc = ref Rational.zero in
  for k = 0 to users t - 1 do
    if k <> user then
      Array.iteri
        (fun ty link ->
          if link = l then
            acc := Rational.add !acc (Rational.mul t.probs.(k).(ty) t.traffics.(k).(ty)))
        s.(k)
  done;
  !acc

let latency t s ~user ~ty l =
  Rational.div
    (Rational.add t.traffics.(user).(ty) (expected_foreign_load t s ~user l))
    t.capacities.(l)

let best_response t s ~user ~ty =
  let best = ref 0 and best_v = ref (latency t s ~user ~ty 0) in
  for l = 1 to links t - 1 do
    let v = latency t s ~user ~ty l in
    if Rational.compare v !best_v < 0 then begin
      best := l;
      best_v := v
    end
  done;
  (!best, !best_v)

let is_nash t s =
  let rec user_ok i =
    if i >= users t then true
    else begin
      let rec ty_ok ty =
        if ty >= type_count t i then true
        else begin
          let current = latency t s ~user:i ~ty s.(i).(ty) in
          let _, best = best_response t s ~user:i ~ty in
          Rational.compare best current >= 0 && ty_ok (ty + 1)
        end
      in
      ty_ok 0 && user_ok (i + 1)
    end
  in
  user_ok 0

let solve t =
  let s = Array.init (users t) (fun i -> Array.make (type_count t i) 0) in
  let total_types = Array.fold_left (fun acc row -> acc + Array.length row) 0 s in
  let budget = ref (256 * total_types * total_types * links t) in
  let improved = ref true in
  while !improved do
    improved := false;
    for i = 0 to users t - 1 do
      for ty = 0 to type_count t i - 1 do
        let current = latency t s ~user:i ~ty s.(i).(ty) in
        let target, best = best_response t s ~user:i ~ty in
        if Rational.compare best current < 0 then begin
          decr budget;
          if !budget < 0 then failwith "Bayesian.solve: step budget exceeded";
          s.(i).(ty) <- target;
          improved := true
        end
      done
    done
  done;
  s

let budget = 1_000_000

(* One odometer digit per (user, type) slot, user-major, so the last
   type of the last user varies fastest. *)
let exists_pure_nash t =
  let total = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.traffics in
  ignore
    (Combinat.search_space ~who:"Bayesian.exists_pure_nash" ~what:"strategies" ~budget (links t)
       total);
  let s = Array.init (users t) (fun i -> Array.make (type_count t i) 0) in
  let exception Found in
  try
    Combinat.iter_odometer ~digits:total ~base:(links t) (fun d ->
        let k = ref 0 in
        Array.iter
          (fun row ->
            for ty = 0 to Array.length row - 1 do
              row.(ty) <- d.(!k);
              incr k
            done)
          s;
        if is_nash t s then raise Found);
    false
  with Found -> true

let random rng ~n ~m ~max_types ~bound =
  let capacities = Array.init m (fun _ -> Rational.of_int (Prng.Rng.int_in rng 1 bound)) in
  let types =
    Array.init n (fun _ ->
        let k = Prng.Rng.int_in rng 1 max_types in
        let probs = Prng.Rng.positive_simplex rng ~dim:k ~grain:(k + 3) in
        List.init k (fun ty ->
            (Rational.of_int (Prng.Rng.int_in rng 1 bound), probs.(ty))))
  in
  make ~capacities ~types
