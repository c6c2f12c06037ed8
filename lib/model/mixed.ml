open Numeric

type profile = Qvec.t array

let validate g p =
  (* The whole mixed layer computes expected latencies as
     belief-weighted load/ĉ sums; a biased (non-load-linear) game has
     no such form, so reject it here — every mixed consumer validates
     through this function or [Eval.check_dims]. *)
  if not (Game.is_load_linear g) then
    invalid_arg "Mixed.validate: game must be load-linear (no Bernoulli participation)";
  if Array.length p <> Game.users g then
    invalid_arg "Mixed.validate: one distribution per user required";
  Array.iter
    (fun row ->
      if Qvec.dim row <> Game.links g then
        invalid_arg "Mixed.validate: distribution dimension differs from link count";
      if not (Qvec.is_distribution row) then
        invalid_arg "Mixed.validate: rows must be probability distributions")
    p

let of_pure g sigma =
  Pure.validate g sigma;
  Array.map
    (fun l ->
      let row = Array.make (Game.links g) Rational.zero in
      row.(l) <- Rational.one;
      row)
    sigma

let uniform g =
  let m = Game.links g in
  Array.init (Game.users g) (fun _ -> Array.make m (Rational.of_ints 1 m))

(* Cached evaluator: the mixed-layer analogue of [Model.View].  The
   expected-traffic vector W is materialised once (O(n·m)); every
   latency query is then O(1) against it, so a full Nash check is
   O(n·m). *)
module Eval = struct
  type eval = { game : Game.t; rows : profile; traffics : Rational.t array }
  type t = eval

  (* Internal constructor: trusts dimensions, optionally skips the
     distribution check (the Lemma 4.9 comparator of fmne_exp evaluates
     FMNE *candidates* whose rows may leave [0, 1]). *)
  let of_rows g rows =
    let traffics =
      Array.init (Game.links g) (fun l ->
          let acc = ref Rational.zero in
          Array.iteri
            (fun i row -> acc := Rational.add !acc (Rational.mul row.(l) (Game.weight g i)))
            rows;
          !acc)
    in
    { game = g; rows; traffics }

  let check_dims g p =
    if not (Game.is_load_linear g) then
      invalid_arg "Mixed.Eval: game must be load-linear (no Bernoulli participation)";
    if Array.length p <> Game.users g then
      invalid_arg "Mixed.Eval: one distribution per user required";
    Array.iter
      (fun row ->
        if Qvec.dim row <> Game.links g then
          invalid_arg "Mixed.Eval: distribution dimension differs from link count")
      p

  let make g p =
    validate g p;
    of_rows g (Array.map Array.copy p)

  let unchecked g p =
    check_dims g p;
    of_rows g (Array.map Array.copy p)

  let expected_traffic e l = e.traffics.(l)

  let latency_on_link e i l =
    let w_i = Game.weight e.game i in
    let own = Rational.mul (Rational.sub Rational.one e.rows.(i).(l)) w_i in
    Rational.div (Rational.add own e.traffics.(l)) (Game.capacity e.game i l)

  let min_latency e i =
    let best = ref (latency_on_link e i 0) in
    for l = 1 to Game.links e.game - 1 do
      best := Rational.min !best (latency_on_link e i l)
    done;
    !best

  let is_nash e =
    let g = e.game in
    let rec check_user i =
      if i >= Game.users g then true
      else begin
        let lambda = min_latency e i in
        let rec check_link l =
          if l >= Game.links g then true
          else begin
            let on_l = latency_on_link e i l in
            let ok =
              if Rational.sign e.rows.(i).(l) > 0 then Rational.equal on_l lambda
              else Rational.compare on_l lambda >= 0
            in
            ok && check_link (l + 1)
          end
        in
        check_link 0 && check_user (i + 1)
      end
    in
    check_user 0

  let social_cost1 e = Rational.sum (List.init (Game.users e.game) (min_latency e))

  let social_cost2 e =
    List.fold_left Rational.max Rational.zero (List.init (Game.users e.game) (min_latency e))
end

(* One-shot conveniences ride a transient evaluator that shares the
   caller's rows (no copy: the eval does not outlive the call).  The
   seed paths never validated, and the Lemma 4.9 comparator relies on
   evaluating non-distribution candidates, so neither do these. *)
let transient g p =
  Eval.check_dims g p;
  Eval.of_rows g p

let expected_traffic g p l = Eval.expected_traffic (transient g p) l
let expected_traffics g p = (transient g p).Eval.traffics
let latency_on_link g p i l = Eval.latency_on_link (transient g p) i l
let min_latency g p i = Eval.min_latency (transient g p) i

let support p i =
  let row = p.(i) in
  List.filter (fun l -> Rational.sign row.(l) > 0) (List.init (Array.length row) Fun.id)

let is_fully_mixed p =
  Array.for_all (Array.for_all (fun q -> Rational.sign q > 0)) p

let is_nash g p = Eval.is_nash (transient g p)
let social_cost1 g p = Eval.social_cost1 (transient g p)
let social_cost2 g p = Eval.social_cost2 (transient g p)

let equal (a : profile) b =
  Array.length a = Array.length b && Array.for_all2 Qvec.equal a b
