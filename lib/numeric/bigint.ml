(* Tagged small-value representation.  The canonical invariant makes
   structural equality coincide with numerical equality:

     Small i        for every value in [-max_int, max_int]  (i <> min_int)
     Big (neg, m)   only when |value| > max_int (so m never fits an int)

   Every constructor of a [Big] goes through [norm_big], which demotes a
   magnitude that fits back into [Small]; min_int itself is therefore a
   [Big] (its magnitude max_int + 1 exceeds the symmetric Small range),
   keeping [neg] total on the Small payload. *)

type t =
  | Small of int
  | Big of bool * Bignat.t (* (negative, magnitude); |value| > max_int *)

let zero = Small 0
let one = Small 1

(* |min_int| = max_int + 1, the first magnitude that must live in a Big. *)
let min_int_mag = Bignat.succ (Bignat.of_int max_int)

let assert_well_formed ~ctx = function
  | Small i ->
    if i = min_int then
      Sanitize.fail (ctx ^ ": Small min_int (must be Big to keep the range symmetric)")
  | Big (_, m) ->
    Bignat.assert_well_formed ~ctx m;
    (match Bignat.to_int_opt m with
     | Some i ->
       Sanitize.fail
         (Printf.sprintf "%s: Big hides a native-size magnitude %d (must be Small)" ctx i)
     | None -> ())

let guard ctx n = if !Sanitize.enabled then assert_well_formed ~ctx n

let unsafe_big ~negative mag = Big (negative, mag)

let norm_big neg mag =
  match Bignat.to_int_opt mag with
  | Some i -> Small (if neg then -i else i)
  | None ->
    let r = Big (neg, mag) in
    guard "Bigint.norm_big" r;
    r

let of_nat n = norm_big false n

let of_int n = if n = min_int then Big (true, min_int_mag) else Small n

let to_int_opt = function
  | Small i -> Some i
  | Big (false, _) -> None
  | Big (true, m) ->
    (* Only min_int can be negative, too big for Small, yet native. *)
    (match Bignat.to_int_opt (Bignat.pred m) with
     | Some i when i = max_int -> Some min_int
     | _ -> None)

let to_int_exn n =
  match to_int_opt n with
  | Some i -> i
  | None -> failwith "Bigint.to_int_exn: value exceeds native int range"

let abs_nat = function
  | Small i -> Bignat.of_int (abs i)
  | Big (_, m) -> m

let sign = function
  | Small i -> Int.compare i 0
  | Big (neg, _) -> if neg then -1 else 1

let is_zero = function Small 0 -> true | _ -> false

let equal (a : t) (b : t) =
  guard "Bigint.equal" a;
  guard "Bigint.equal" b;
  match a, b with
  | Small x, Small y -> Int.equal x y
  | Big (nx, mx), Big (ny, my) -> Bool.equal nx ny && Bignat.equal mx my
  | _ -> false

let compare a b =
  guard "Bigint.compare" a;
  guard "Bigint.compare" b;
  match a, b with
  | Small x, Small y -> Int.compare x y
  | Small _, Big (neg, _) -> if neg then 1 else -1
  | Big (neg, _), Small _ -> if neg then -1 else 1
  | Big (false, x), Big (false, y) -> Bignat.compare x y
  | Big (true, x), Big (true, y) -> Bignat.compare y x
  | Big (false, _), Big (true, _) -> 1
  | Big (true, _), Big (false, _) -> -1

(* The canonical representation makes this consistent with [equal]:
   numerically equal values share a constructor and payload.  The
   Small mix is an explicit multiply-xorshift so no code path touches
   the representation-polymorphic [Hashtbl.hash]. *)
let hash n =
  guard "Bigint.hash" n;
  match n with
  | Small i ->
    let h = i * 0x9E3779B1 in
    (h lxor (h lsr 24)) land max_int
  | Big (neg, m) ->
    let h = Bignat.hash m in
    (if neg then lnot h else h) land max_int

let num_bits = function
  | Small i ->
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 (abs i)
  | Big (_, m) -> Bignat.num_bits m

let is_native = function Small _ -> true | Big _ -> false

(* No [Small] payload is min_int, so it is free to stand for [Big]. *)
let native_or_min_int = function Small i -> i | Big _ -> min_int

(* O(1) magnitude estimate in 30-bit limbs: 2^(30(w-1)) <= |n| < 2^(30w)
   for w = size n > 0.  Three comparisons on the Small side, an array
   length on the Big side — cheap enough to gate comparisons on. *)
let size = function
  | Small 0 -> 0
  | Small i ->
    let a = Stdlib.abs i in
    if a < 0x4000_0000 then 1 else if a < 0x1000_0000_0000_0000 then 2 else 3
  | Big (_, m) -> Bignat.num_limbs m

(* 29-bit mantissa bracket of the magnitude: for n <> 0, [approx n] is
   [(mant, e)] with [2^28 <= mant < 2^29] and
   [mant·2^e <= |n| < (mant+1)·2^e] (exponents below 29-bit values are
   negative and only ever used as differences).  O(1); the bracket is
   what lets rational comparisons decide without a full multiply. *)
let approx = function
  | Small 0 -> invalid_arg "Bigint.approx: zero"
  | Small i ->
    let v = Stdlib.abs i in
    let bv = Bignat.bits_native v in
    if bv >= 29 then (v lsr (bv - 29), bv - 29) else (v lsl (29 - bv), bv - 29)
  | Big (_, m) -> Bignat.approx m

let neg = function
  | Small i -> Small (-i)
  | Big (neg, m) -> Big (not neg, m)

let abs = function
  | Small i -> Small (abs i)
  | Big (_, m) -> Big (false, m)

(* Sign + magnitude view for the limb-array fallback paths.  Only taken
   when an operand is Big or a native op overflowed, so the [of_int]
   allocation is off the hot path. *)
let decompose = function
  | Small i -> (i < 0, Bignat.of_int (Stdlib.abs i))
  | Big (neg, m) -> (neg, m)

let add_big a b =
  let na, ma = decompose a and nb, mb = decompose b in
  if na = nb then norm_big na (Bignat.add ma mb)
  else begin
    let c = Bignat.compare ma mb in
    if c = 0 then zero
    else if c > 0 then norm_big na (Bignat.sub ma mb)
    else norm_big nb (Bignat.sub mb ma)
  end

let add a b =
  guard "Bigint.add" a;
  guard "Bigint.add" b;
  match a, b with
  | Small x, Small y ->
    let s = x + y in
    (* Wrapped iff x and y agree in sign and s does not; an exact
       min_int must also promote to keep the Small range symmetric. *)
    if (x lxor s) land (y lxor s) < 0 || s = min_int then add_big a b
    else Small s
  | _ -> add_big a b

let sub a b =
  guard "Bigint.sub" a;
  guard "Bigint.sub" b;
  match a, b with
  | Small x, Small y ->
    let d = x - y in
    if (x lxor y) land (x lxor d) < 0 || d = min_int then add_big a (neg b)
    else Small d
  | _ -> add_big a (neg b)

let mul_big a b =
  let na, ma = decompose a and nb, mb = decompose b in
  norm_big (na <> nb) (Bignat.mul ma mb)

let mul a b =
  guard "Bigint.mul" a;
  guard "Bigint.mul" b;
  match a, b with
  | Small x, Small y ->
    if x = 0 || y = 0 then zero
    else if Stdlib.abs x lor Stdlib.abs y < 0x4000_0000 then
      (* Both magnitudes < 2^30: the product is < 2^60, no check needed. *)
      Small (x * y)
    else begin
      let p = x * y in
      (* p/y recovers x only when the product did not wrap: a wrapped
         product differs from the true one by a multiple of 2^63 > |y|·max. *)
      if p <> min_int && p / y = x then Small p else mul_big a b
    end
  | _ -> mul_big a b

let divmod a b =
  guard "Bigint.divmod" a;
  guard "Bigint.divmod" b;
  match a, b with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y ->
    (* Native division is truncated with remainder signed like the
       dividend — exactly this module's contract; magnitudes can only
       shrink, so no overflow check is needed. *)
    (Small (x / y), Small (x mod y))
  | _ ->
    let na, ma = decompose a and nb, mb = decompose b in
    let q, r = Bignat.divmod ma mb in
    (norm_big (na <> nb) q, norm_big na r)

let div a b = fst (divmod a b)

let gcd a b =
  guard "Bigint.gcd" a;
  guard "Bigint.gcd" b;
  match a, b with
  | Small x, Small y -> Small (Bignat.gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | Small 0, n | n, Small 0 -> abs n
  | Small y, Big (_, m) | Big (_, m), Small y ->
    (* One multi-limb reduction drops into the native binary GCD. *)
    let r = Bignat.rem m (Bignat.of_int (Stdlib.abs y)) in
    Small (Bignat.gcd_int (Stdlib.abs y) (Bignat.to_int_exn r))
  | Big (_, x), Big (_, y) -> of_nat (Bignat.gcd x y)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let to_string = function
  | Small i -> string_of_int i
  | Big (false, m) -> Bignat.to_string m
  | Big (true, m) -> "-" ^ Bignat.to_string m

let of_string s =
  if s = "" then invalid_arg "Bigint.of_string: empty string"
  else if s.[0] = '-' then
    neg (of_nat (Bignat.of_string (String.sub s 1 (String.length s - 1))))
  else if s.[0] = '+' then
    of_nat (Bignat.of_string (String.sub s 1 (String.length s - 1)))
  else of_nat (Bignat.of_string s)

(* Intended float boundary: the one lossy exit from the exact tower. *)
let to_float = function
  | Small i -> float_of_int i
  | Big (false, m) -> Bignat.to_float m
  | Big (true, m) -> -.Bignat.to_float m (* lint: allow R2 *)
