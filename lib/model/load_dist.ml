open Numeric

(* Keyed on one packed integer per load state (see [radix] below);
   Bigint.hash/Bigint.equal respect the canonical small/big split, so
   equal keys collide by law and the polymorphic hash never runs (R1). *)
module Tbl = Hashtbl.Make (struct
  type t = Bigint.t

  let equal = Bigint.equal
  let hash = Bigint.hash
end)

(* The lattice representation.  Loads are scaled by [scale], the lcm
   of the weight denominators, so every scaled load is an integer in
   [0, total].  The first m-1 of them are the digits of one key in
   radix [total + 1] (no digit can carry); the last is [total] minus
   the rest.  Every class row is a vector of integer numerators over
   one denominator b_c, so a state's probability is its integer mass
   over the common denominator [den] = Π_c b_c^{n_c}.  The final layer
   is kept as built: [keys] and [masses], index-aligned. *)
type t = {
  keys : Bigint.t array;
  masses : Bigint.t array;
  den : Bigint.t;
  scale : Bigint.t;
  radix : Bigint.t;
  total : Bigint.t;
  links : int;
  classes : int;
}

let links d = d.links
let size d = Array.length d.keys
let classes d = d.classes
let scale d = d.scale

let lcm a b = Bigint.mul (Bigint.div a (Bigint.gcd a b)) b

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

(* [over d q] is the integer numerator of [q] over a multiple [d] of
   its denominator. *)
let over d q = Bigint.mul (Rational.num q) (Bigint.div d (Rational.den q))

(* All ways to split [count] exchangeable users across the links, as
   (key delta, integer mass) pairs.  The split (k_1, …, k_m) moves the
   key by Σ_{l<m-1} k_l·step·place(l) and has mass C(count; k_1 … k_m)
   · Π_l a_l^{k_l}, where a_l/b is the row over its lcm denominator b;
   the class contributes b^count to the common denominator.  Splits
   placing users on a zero-probability link are skipped before any
   arithmetic, so zero-mass load states are never generated (this
   keeps [size] identical to the seed enumeration). *)
let class_splits ~places ~count ~step ~(row : Qvec.t) =
  let m = Array.length row in
  let b = Array.fold_left (fun acc q -> lcm acc (Rational.den q)) Bigint.one row in
  let pows =
    Array.map
      (fun q ->
        let a = over b q in
        let ps = Array.make (count + 1) Bigint.one in
        for k = 1 to count do
          ps.(k) <- Bigint.mul ps.(k - 1) a
        done;
        ps)
      row
  in
  let splits = ref [] in
  Combinat.iter_compositions ~total:count ~parts:m (fun counts ->
      let supported = ref true in
      for l = 0 to m - 1 do
        if counts.(l) > 0 && Rational.sign row.(l) = 0 then supported := false
      done;
      if !supported then begin
        let mass = ref (Combinat.multinomial counts) and delta = ref Bigint.zero in
        for l = 0 to m - 1 do
          mass := Bigint.mul !mass pows.(l).(counts.(l))
        done;
        for l = 0 to m - 2 do
          delta := Bigint.add !delta (Bigint.mul (Bigint.of_int counts.(l)) places.(l))
        done;
        splits := (Bigint.mul !delta step, !mass) :: !splits
      end);
  (Array.of_list !splits, Bigint.pow b count)

let limit_message = "Load_dist.of_mixed: distinct load states exceed the limit"

(* Accumulated masses live in mutable cells, so merging a state that
   is already present costs one lookup. *)
type cell = { mutable mass : Bigint.t }

(* [a·b] saturated at [max_int], for non-negative [a] and [b]. *)
let saturating_mul a b = if a = 0 || b <= max_int / a then a * b else max_int

(* One DP layer: fold a class's splits into every accumulated state,
   merging states that land on the same key.  The table is created at
   its final size bound — every state times every split, at most
   [key_space] (the lattice's key count) and at most [limit] — so it
   never rehashes.  Each layer's table is built and dropped inside
   [of_mixed], so it never crosses a domain and needs no ownership
   guard. *)
let apply ~limit ~key_space layer splits =
  let next =
    Tbl.create (min limit (min key_space (saturating_mul (Tbl.length layer) (Array.length splits))))
  in
  Tbl.iter
    (fun key cell ->
      Array.iter
        (fun (delta, mass) ->
          let key' = Bigint.add key delta in
          let contribution = Bigint.mul cell.mass mass in
          match Tbl.find_opt next key' with
          | Some c -> c.mass <- Bigint.add c.mass contribution
          | None ->
            if Tbl.length next >= limit then invalid_arg limit_message;
            Tbl.add next key' { mass = contribution })
        splits)
    layer;
  next

let of_mixed ?(limit = 1_000_000) g p =
  Mixed.validate g p;
  if limit <= 0 then invalid_arg "Load_dist.of_mixed: limit must be positive";
  let m = Game.links g in
  let cls = classes_of g p in
  let scale = List.fold_left (fun acc (w, _, _) -> lcm acc (Rational.den w)) Bigint.one cls in
  let total =
    List.fold_left
      (fun acc (w, _, count) -> Bigint.add acc (Bigint.mul (Bigint.of_int count) (over scale w)))
      Bigint.zero cls
  in
  let radix = Bigint.add total Bigint.one in
  let places = Array.make (max 0 (m - 1)) Bigint.one in
  for l = 1 to m - 2 do
    places.(l) <- Bigint.mul places.(l - 1) radix
  done;
  (* Every key is below radix^(m-1). *)
  let key_space =
    match Bigint.to_int_opt (Bigint.pow radix (max 0 (m - 1))) with Some k -> k | None -> max_int
  in
  let layer0 = Tbl.create 1 in
  Tbl.add layer0 Bigint.zero { mass = Bigint.one };
  let table, den =
    List.fold_left
      (fun (layer, den) (w, row, count) ->
        let splits, b = class_splits ~places ~count ~step:(over scale w) ~row in
        (apply ~limit ~key_space layer splits, Bigint.mul den b))
      (layer0, Bigint.one) cls
  in
  let states = Tbl.length table in
  let keys = Array.make states Bigint.zero and masses = Array.make states Bigint.zero in
  let i = ref 0 in
  Tbl.iter
    (fun key cell ->
      keys.(!i) <- key;
      masses.(!i) <- cell.mass;
      incr i)
    table;
  { keys; masses; den; scale; radix; total; links = m; classes = List.length cls }

let total_probability d = Rational.make (Array.fold_left Bigint.add Bigint.zero d.masses) d.den

(* The scaled loads of [key] into [into]: its digits in radix [radix],
   the last load completing the scaled total. *)
let digits d key into =
  let m = d.links in
  let rest = ref key and last = ref d.total in
  for l = 0 to m - 2 do
    let q, r = Bigint.divmod !rest d.radix in
    into.(l) <- r;
    last := Bigint.sub !last r;
    rest := q
  done;
  into.(m - 1) <- !last

(* Σ_v mass(v)·f(K(v)) is an integer; one [Rational.make] reduces it.
   The scratch vector belongs to this call alone. *)
let expect_scaled d ~over f =
  let k = Array.make d.links Bigint.zero in
  let acc = ref Bigint.zero in
  Array.iteri
    (fun i key ->
      digits d key k;
      acc := Bigint.add !acc (Bigint.mul d.masses.(i) (f k)))
    d.keys;
  Rational.make !acc (Bigint.mul d.den over)

(* The rational load vector of [key], built afresh for the caller. *)
let decode d key =
  let k = Array.make d.links Bigint.zero in
  digits d key k;
  if Bigint.equal d.scale Bigint.one then Array.map Rational.of_bigint k
  else Array.map (fun v -> Rational.make v d.scale) k

(* Σ_v mass(v)·f(v) over one running common denominator [acc_den].
   [cofactors] maps every denominator already absorbed to acc_den/den,
   so a gcd is taken only when a new denominator appears; the sum is
   reduced once, at the end. *)
let expect d f =
  let cofactors = Tbl.create 8 in
  let acc = ref Bigint.zero and acc_den = ref Bigint.one in
  let cofactor q =
    let qd = Rational.den q in
    match Tbl.find_opt cofactors qd with
    | Some k -> k
    | None ->
      let grow = Bigint.div qd (Bigint.gcd !acc_den qd) in
      acc := Bigint.mul !acc grow;
      acc_den := Bigint.mul !acc_den grow;
      Tbl.filter_map_inplace (fun _ k -> Some (Bigint.mul k grow)) cofactors;
      let k = Bigint.div !acc_den qd in
      Tbl.add cofactors qd k;
      k
  in
  Array.iteri
    (fun i key ->
      let q = f (decode d key) in
      if not (Rational.is_zero q) then begin
        (* [cofactor] may rescale [acc], so it runs before [acc] is read. *)
        let k = cofactor q in
        acc := Bigint.add !acc (Bigint.mul (Bigint.mul d.masses.(i) (Rational.num q)) k)
      end)
    d.keys;
  Rational.make !acc (Bigint.mul !acc_den d.den)

let iter d f = Array.iteri (fun i key -> f (decode d key) (Rational.make d.masses.(i) d.den)) d.keys
