open Numeric

(* The exact lane's table, keyed on one packed integer per load state
   (see [t] below); Bigint.hash/Bigint.equal respect the canonical small/big split, so
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
   is kept as built, on the lane [of_mixed] admitted: [Native] is a
   flat table of int keys and int masses whose free slots hold [free],
   with the radix and the scaled total as ints; [Exact] holds [Bigint]
   keys and masses, index-aligned. *)
type lattice =
  | Native of { keys : int array; masses : int array; radix : int; total : int }
  | Exact of { keys : Bigint.t array; masses : Bigint.t array; radix : Bigint.t }

type t = {
  lattice : lattice;
  size : int;
  den : Bigint.t;
  scale : Bigint.t;
  total : Bigint.t;
  links : int;
  classes : int;
}

let links d = d.links
let size d = d.size
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

(* [row_den row] is b, the lcm of the row's denominators. *)
let row_den row = Array.fold_left (fun acc q -> lcm acc (Rational.den q)) Bigint.one row

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
  let b = row_den row in
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
   [of_mixed]. *)
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

(* The exact DP: one [apply] per class, from the point mass at key 0. *)
let exact_layers ~limit ~key_space ~places ~scale cls =
  let layer0 = Tbl.create 1 in
  Tbl.add layer0 Bigint.zero { mass = Bigint.one };
  List.fold_left
    (fun (layer, den) (w, row, count) ->
      let splits, b = class_splits ~places ~count ~step:(over scale w) ~row in
      (apply ~limit ~key_space layer splits, Bigint.mul den b))
    (layer0, Bigint.one) cls

(* A native layer: open addressing with linear probing over a
   power-of-two capacity, [keys] and [masses] index-aligned and [free]
   in every free slot (keys are never negative). *)
type layer = { keys : int array; masses : int array; count : int }

let free = -1

(* Twice the smallest power of two at least [bound], so a table never
   fills past half.  Past [Sys.max_array_length] the doubling stops and
   [Array.make] refuses the size, so no loop can probe a full table. *)
let capacity bound =
  let c = ref 1 in
  while !c < bound && !c <= Sys.max_array_length do
    c := 2 * !c
  done;
  2 * !c

(* Multiplicative hashing: the key times an odd constant, its high
   half folded onto the low bits the mask keeps. *)
let slot ~mask key =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land mask

(* [apply] on native ints.  Admission bounds every key below the key
   space and every mass, product and merged sum by [den], so no step
   can overflow and the loop carries no check.  The table is presized
   by [apply]'s bound and never grows. *)
let native_apply ~limit ~key_space layer deltas weights =
  let bound = min limit (min key_space (saturating_mul layer.count (Array.length deltas))) in
  let size = capacity bound in
  let keys = Array.make size free and masses = Array.make size 0 in
  let mask = size - 1 and count = ref 0 in
  Array.iteri
    (fun s key ->
      if key <> free then begin
        let mass = layer.masses.(s) in
        for j = 0 to Array.length deltas - 1 do
          let key' = key + deltas.(j) in
          let i = ref (slot ~mask key') in
          while keys.(!i) <> free && keys.(!i) <> key' do
            i := (!i + 1) land mask
          done;
          if keys.(!i) = free then begin
            if !count >= limit then invalid_arg limit_message;
            keys.(!i) <- key';
            incr count
          end;
          masses.(!i) <- masses.(!i) + (mass * weights.(j))
        done
      end)
    layer.keys;
  { keys; masses; count = !count }

(* The native DP: [exact_layers] with every split narrowed to ints. *)
let native_layers ~limit ~key_space ~places ~scale cls =
  List.fold_left
    (fun (layer, den) (w, row, count) ->
      let splits, b = class_splits ~places ~count ~step:(over scale w) ~row in
      let deltas = Array.map (fun (delta, _) -> Bigint.to_int_exn delta) splits in
      let weights = Array.map (fun (_, mass) -> Bigint.to_int_exn mass) splits in
      (native_apply ~limit ~key_space layer deltas weights, den * Bigint.to_int_exn b))
    ({ keys = [| 0 |]; masses = [| 1 |]; count = 1 }, 1)
    cls

(* Armed, the native lane is re-derived by the exact DP: the same state
   count, the same mass at every key and the same denominator. *)
let cross_check (table, den) layer nden =
  let fail fmt = Printf.ksprintf Sanitize.fail ("Load_dist.of_mixed: " ^^ fmt) in
  if Tbl.length table <> layer.count then
    fail "the native lane holds %d states, the exact DP %d" layer.count (Tbl.length table);
  if not (Bigint.equal den (Bigint.of_int nden)) then
    fail "the native denominator %d, the exact %s" nden (Bigint.to_string den);
  Array.iteri
    (fun s key ->
      if key <> free then
        match Tbl.find_opt table (Bigint.of_int key) with
        | Some c when Bigint.equal c.mass (Bigint.of_int layer.masses.(s)) -> ()
        | Some c ->
          fail "key %d has native mass %d, exact mass %s" key layer.masses.(s)
            (Bigint.to_string c.mass)
        | None -> fail "key %d is not an exact state" key)
    layer.keys

let max_native = Bigint.of_int max_int

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
  let key_space = Bigint.pow radix (max 0 (m - 1)) in
  let den =
    List.fold_left
      (fun acc (_, row, count) -> Bigint.mul acc (Bigint.pow (row_den row) count))
      Bigint.one cls
  in
  let classes = List.length cls in
  (* The native lane runs whenever every key, every scaled load and
     [den], and so every mass, fit a native int (the radix T + 1 is
     below the key space unless m = 1).  The bounds are known before
     the first layer, so admission is decided once and the lane never
     restarts. *)
  let fits x = Bigint.compare x max_native <= 0 in
  if fits key_space && fits den && fits radix then begin
    let key_space = Bigint.to_int_exn key_space in
    let layer, nden = native_layers ~limit ~key_space ~places ~scale cls in
    if !Sanitize.enabled then
      cross_check (exact_layers ~limit ~key_space ~places ~scale cls) layer nden;
    {
      lattice =
        Native
          {
            keys = layer.keys;
            masses = layer.masses;
            radix = Bigint.to_int_exn radix;
            total = Bigint.to_int_exn total;
          };
      size = layer.count;
      den = Bigint.of_int nden;
      scale;
      total;
      links = m;
      classes;
    }
  end
  else begin
    let key_space = Option.value (Bigint.to_int_opt key_space) ~default:max_int in
    let table, den = exact_layers ~limit ~key_space ~places ~scale cls in
    let states = Tbl.length table in
    let keys = Array.make states Bigint.zero and masses = Array.make states Bigint.zero in
    let i = ref 0 in
    Tbl.iter
      (fun key cell ->
        keys.(!i) <- key;
        masses.(!i) <- cell.mass;
        incr i)
      table;
    let lattice = Exact { keys; masses; radix } in
    { lattice; size = states; den; scale; total; links = m; classes }
  end

(* [decode_key ~radix ~total k key] writes the scaled loads of the native
   [key] into [k]: its first m-1 digits in radix [radix], one division
   each (the last stored digit is the quotient left over), and the last
   load completing [total].  The one native decoder: [each] and the
   native expectation both read keys through it. *)
let decode_key ~radix ~total k key =
  let m = Array.length k in
  let rest = ref key and sum = ref 0 in
  for l = 0 to m - 3 do
    let q = !rest / radix in
    let r = !rest - (q * radix) in
    k.(l) <- r;
    sum := !sum + r;
    rest := q
  done;
  (* When m = 1 the only key is 0, so [rest] adds nothing. *)
  if m > 1 then k.(m - 2) <- !rest;
  k.(m - 1) <- total - !sum - !rest

(* [each d k f] calls [f mass] once per state, with the state's scaled
   loads written into [k]: the key's first m-1 digits in radix
   [total + 1], the last load completing the scaled total.  With the
   native expectation below it is the one reader of the final layer,
   so only they and [of_mixed] know which lane ran. *)
let each d k f =
  let m = d.links in
  match d.lattice with
  | Native { keys; masses; radix; total } ->
    let digits = Array.make m 0 in
    Array.iteri
      (fun s key ->
        if key <> free then begin
          decode_key ~radix ~total digits key;
          Array.iteri (fun l x -> k.(l) <- Bigint.of_int x) digits;
          f (Bigint.of_int masses.(s))
        end)
      keys
  | Exact { keys; masses; radix } ->
    Array.iteri
      (fun i key ->
        let rest = ref key and last = ref d.total in
        for l = 0 to m - 2 do
          let q, r = Bigint.divmod !rest radix in
          k.(l) <- r;
          last := Bigint.sub !last r;
          rest := q
        done;
        k.(m - 1) <- !last;
        f masses.(i))
      keys

let total_probability d =
  let acc = ref Bigint.zero in
  each d (Array.make d.links Bigint.zero) (fun mass -> acc := Bigint.add !acc mass);
  Rational.make !acc d.den

type kernel = Max_weighted of Bigint.t array | Sum_sq_weighted of Bigint.t array

(* f(K) on [Bigint]s, reading the first |u| coordinates of [k]. *)
let exact_kernel = function
  | Max_weighted u ->
    fun k ->
      let best = ref (Bigint.mul k.(0) u.(0)) in
      for l = 1 to Array.length u - 1 do
        let x = Bigint.mul k.(l) u.(l) in
        if Bigint.compare x !best > 0 then best := x
      done;
      !best
  | Sum_sq_weighted u ->
    fun k ->
      let acc = ref Bigint.zero in
      Array.iteri (fun l u -> acc := Bigint.add !acc (Bigint.mul (Bigint.mul k.(l) k.(l)) u)) u;
      !acc

(* [exact_kernel] on ints, for a kernel [native_admits]. *)
let native_kernel = function
  | Max_weighted u ->
    let u = Array.map Bigint.to_int_exn u in
    fun k ->
      let best = ref (k.(0) * u.(0)) in
      for l = 1 to Array.length u - 1 do
        let x = k.(l) * u.(l) in
        if x > !best then best := x
      done;
      !best
  | Sum_sq_weighted u ->
    let u = Array.map Bigint.to_int_exn u in
    fun k ->
      let acc = ref 0 in
      for l = 0 to Array.length u - 1 do
        acc := !acc + (k.(l) * k.(l) * u.(l))
      done;
      !acc

(* Since Σ_l K_l = T, |f(K)| ≤ T^p·max_l |u_l| (p = 1 for the max, 2
   for the sum of squares), and the masses sum to [den], so every
   product, term and partial sum of Σ mass·f(K) is at most
   den·T^p·max_l |u_l| in magnitude.  Taking T and max |u| as at least
   1 also bounds every u_l, every K_l·u_l and every K_l².  When that
   bound fits, the native loop can carry no overflow check. *)
let native_admits d kernel =
  let u, p = match kernel with Max_weighted u -> (u, 1) | Sum_sq_weighted u -> (u, 2) in
  let at_least a b = if Bigint.compare a b >= 0 then a else b in
  let umax = Array.fold_left (fun acc x -> at_least (Bigint.abs x) acc) Bigint.one u in
  let tp = Bigint.pow (at_least d.total Bigint.one) p in
  Bigint.compare (Bigint.mul d.den (Bigint.mul tp umax)) max_native <= 0

(* Σ_v mass(v)·f(K(v)) on native ints: no allocation per state. *)
let native_sum ~keys ~masses ~radix ~total ~links f =
  let k = Array.make links 0 and acc = ref 0 in
  for s = 0 to Array.length keys - 1 do
    let key = keys.(s) in
    if key <> free then begin
      decode_key ~radix ~total k key;
      acc := !acc + (masses.(s) * f k)
    end
  done;
  !acc

(* Σ_v mass(v)·f(K(v)) on [Bigint]s; the scratch vector belongs to
   this call alone. *)
let exact_sum d f =
  let k = Array.make d.links Bigint.zero in
  let acc = ref Bigint.zero in
  each d k (fun mass -> acc := Bigint.add !acc (Bigint.mul mass (f k)));
  !acc

(* The sum is an integer on either lane; one [Rational.make] reduces
   it.  Armed, a native sum is re-derived on [Bigint]s. *)
let expect_scaled d ~over kernel =
  let u = match kernel with Max_weighted u | Sum_sq_weighted u -> u in
  if Array.length u > d.links then
    invalid_arg
      (Printf.sprintf "Load_dist.expect_scaled: %d weights for %d load coordinates" (Array.length u)
         d.links);
  (match kernel with
   | Max_weighted [||] -> invalid_arg "Load_dist.expect_scaled: Max_weighted of no weights"
   | Max_weighted _ | Sum_sq_weighted _ -> ());
  let den = Bigint.mul d.den over in
  match d.lattice with
  | Native { keys; masses; radix; total } when native_admits d kernel ->
    let sum = native_sum ~keys ~masses ~radix ~total ~links:d.links (native_kernel kernel) in
    let q = Rational.make (Bigint.of_int sum) den in
    if !Sanitize.enabled then begin
      let exact = Rational.make (exact_sum d (exact_kernel kernel)) den in
      if not (Rational.equal q exact) then
        Sanitize.fail
          (Printf.sprintf "Load_dist.expect_scaled: the native sum gives %s, the exact %s"
             (Rational.to_string q) (Rational.to_string exact))
    end;
    q
  | Native _ | Exact _ -> Rational.make (exact_sum d (exact_kernel kernel)) den

(* The rational load vector of the scaled loads [k], built afresh for
   the caller. *)
let decode d k =
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
  let k = Array.make d.links Bigint.zero in
  each d k (fun mass ->
      let q = f (decode d k) in
      if not (Rational.is_zero q) then begin
        (* [cofactor] may rescale [acc], so it runs before [acc] is read. *)
        let c = cofactor q in
        acc := Bigint.add !acc (Bigint.mul (Bigint.mul mass (Rational.num q)) c)
      end);
  Rational.make !acc (Bigint.mul !acc_den d.den)

let iter d f =
  let k = Array.make d.links Bigint.zero in
  each d k (fun mass -> f (decode d k) (Rational.make mass d.den))
