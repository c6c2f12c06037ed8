open Numeric

let iter_profiles g f = Combinat.iter_odometer ~digits:(Game.users g) ~base:(Game.links g) f

let profile_count g = Combinat.pow (Game.links g) (Game.users g)

let budget = 10_000_000

(* Branch-and-bound in odometer order: users 0..n-1 are placed in turn,
   each trying its links in ascending order, so the leaves come in
   exactly [iter_profiles] order.  [cost] never falls as users are
   placed, so a prefix whose cost already reaches the best leaf cannot
   lead to a strictly cheaper one and is cut.  A leaf replaces the best
   only when strictly cheaper, which keeps the first minimum. *)
let minimise ~who ~budget g cost =
  let n = Game.users g and m = Game.links g in
  ignore (Combinat.search_space ~who ~what:"pure profiles" ~budget m n);
  let loads = Array.make m Rational.zero and sigma = Array.make n 0 in
  let best = ref None in
  let rec place i =
    let t = Game.contribution g i in
    for l = 0 to m - 1 do
      let before = loads.(l) in
      sigma.(i) <- l;
      loads.(l) <- Rational.add before t;
      let c = cost loads sigma (i + 1) in
      (match !best with
       | Some (b, _) when Rational.compare c b >= 0 -> ()
       | _ -> if i + 1 = n then best := Some (c, Array.copy sigma) else place (i + 1));
      loads.(l) <- before
    done
  in
  place 0;
  match !best with
  | Some (v, p) -> (v, p)
  | None -> assert false (* the first leaf always beats [None] *)

(* The first [k] users' latencies folded with [op]; each user's own
   latency carries its bias, as in [Pure.latency]. *)
let placed op g loads sigma k =
  let acc = ref Rational.zero in
  for i = 0 to k - 1 do
    let l = sigma.(i) in
    acc := op !acc (Rational.div (Rational.add loads.(l) (Game.bias g i)) (Game.capacity g i l))
  done;
  !acc

let opt1 g = minimise ~who:"Social.opt1" ~budget g (placed Rational.add g)
let opt2 g = minimise ~who:"Social.opt2" ~budget g (placed Rational.max g)

let ratio1 g p =
  let opt, _ = opt1 g in
  Rational.div (Mixed.social_cost1 g p) opt

let ratio2 g p =
  let opt, _ = opt2 g in
  Rational.div (Mixed.social_cost2 g p) opt
