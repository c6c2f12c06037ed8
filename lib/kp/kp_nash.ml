open Model
open Numeric

let require_kp name g =
  if not (Game.is_kp g) then
    invalid_arg (Printf.sprintf "Kp_nash.%s: game is not a KP instance" name)

let solve g =
  require_kp "solve" g;
  let n = Game.users g and m = Game.links g in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Rational.compare (Game.weight g b) (Game.weight g a) in
      if c <> 0 then c else Int.compare a b)
    order;
  let load = Array.make m Rational.zero in
  let sigma = Array.make n 0 in
  Array.iter
    (fun k ->
      (* Best response of user k against the loads placed so far:
         minimise (load + w_k)/c^l (capacities are shared in KP). *)
      let score l =
        Rational.div (Rational.add load.(l) (Game.weight g k)) (Game.capacity g k l)
      in
      let best = ref 0 and best_score = ref (score 0) in
      for l = 1 to m - 1 do
        let s = score l in
        if Rational.compare s !best_score < 0 then begin
          best := l;
          best_score := s
        end
      done;
      sigma.(k) <- !best;
      load.(!best) <- Rational.add load.(!best) (Game.weight g k))
    order;
  sigma
