open Numeric

(* Keyed on the exact load vector; Qvec.hash/Qvec.equal compose the
   canonical Rational hashes, so equal vectors collide by law and the
   polymorphic hash never runs (R1). *)
module Tbl = Hashtbl.Make (struct
  type t = Qvec.t

  let equal = Qvec.equal
  let hash = Qvec.hash
end)

type t = { table : Rational.t Tbl.t; links : int; classes : int }

let links d = d.links
let size d = Tbl.length d.table
let classes d = d.classes

(* Group users into classes of equal weight and equal probability row,
   in first-seen order.  Capacities are irrelevant: the load vector is
   a function of weights and link choices only. *)
let classes_of g p =
  let n = Game.users g in
  let cls = ref [] in
  for i = n - 1 downto 0 do
    (* downto + prepend keeps first-seen order in the final list *)
    let w = Game.weight g i in
    match
      List.find_opt (fun (w', row', _) -> Rational.equal w w' && Qvec.equal p.(i) row') !cls
    with
    | Some (_, _, count) -> incr count
    | None -> cls := (w, p.(i), ref 1) :: !cls
  done;
  List.map (fun (w, row, count) -> (w, row, !count)) !cls

(* All ways to split [count] exchangeable users of weight [weight]
   across the links, as (load delta, probability mass) pairs.  The mass
   of the split (k_1, …, k_m) is the multinomial C(count; k_1 … k_m)
   times Π_l row(l)^{k_l} — both now computed by the shared
   [Numeric.Combinat] module.  Splits placing users on a
   zero-probability link are skipped before any arithmetic, so
   zero-mass load states are never generated (this keeps [size]
   identical to the seed enumeration). *)
let class_splits ~links:m ~count ~weight ~(row : Qvec.t) =
  let pows =
    Array.map
      (fun q ->
        let a = Array.make (count + 1) Rational.one in
        for k = 1 to count do
          a.(k) <- Rational.mul a.(k - 1) q
        done;
        a)
      row
  in
  let splits = ref [] in
  Combinat.iter_compositions ~total:count ~parts:m (fun counts ->
      let supported = ref true in
      for l = 0 to m - 1 do
        if counts.(l) > 0 && Rational.sign row.(l) = 0 then supported := false
      done;
      if !supported then begin
        let mass = ref (Rational.of_bigint (Combinat.multinomial counts)) in
        for l = 0 to m - 1 do
          mass := Rational.mul !mass pows.(l).(counts.(l))
        done;
        let delta = Qvec.init m (fun l -> Rational.mul (Rational.of_int counts.(l)) weight) in
        splits := (delta, !mass) :: !splits
      end);
  !splits

let limit_message = "Load_dist.of_mixed: distinct load states exceed the limit"

(* Fold one state's outgoing splits into the next layer's table. *)
let expand_into ~limit next splits loads prob =
  List.iter
    (fun (delta, mass) ->
      let loads' = Qvec.add loads delta in
      let contribution = Rational.mul prob mass in
      match Tbl.find_opt next loads' with
      | Some q -> Tbl.replace next loads' (Rational.add q contribution)
      | None ->
        if Tbl.length next >= limit then invalid_arg limit_message;
        Tbl.add next loads' contribution)
    splits

(* One DP layer: fold a class's splits into every accumulated state,
   merging states that land on the same load vector.  Each layer's
   table is built and dropped inside [of_mixed], so it never crosses a
   domain and needs no ownership guard. *)
let apply ~limit layer splits =
  let next = Tbl.create (2 * Tbl.length layer) in
  Tbl.iter (expand_into ~limit next splits) layer;
  next

let of_mixed ?(limit = 1_000_000) g p =
  Mixed.validate g p;
  if limit <= 0 then invalid_arg "Load_dist.of_mixed: limit must be positive";
  let m = Game.links g in
  let cls = classes_of g p in
  let layer0 = Tbl.create 16 in
  Tbl.add layer0 (Qvec.make m Rational.zero) Rational.one;
  let table =
    List.fold_left
      (fun layer (weight, row, count) ->
        apply ~limit layer (class_splits ~links:m ~count ~weight ~row))
      layer0 cls
  in
  { table; links = m; classes = List.length cls }

let total_probability d =
  let acc = ref Rational.zero in
  Tbl.iter (fun _ prob -> acc := Rational.add !acc prob) d.table;
  !acc

let expect d f =
  let acc = ref Rational.zero in
  Tbl.iter (fun loads prob -> acc := Rational.add !acc (Rational.mul prob (f loads))) d.table;
  !acc

let iter d f = Tbl.iter f d.table
