type t = { num : Bigint.t; den : Bigint.t }
(* Invariant: den > 0 and gcd(|num|, den) = 1. *)

let assert_well_formed ~ctx q =
  Bigint.assert_well_formed ~ctx q.num;
  Bigint.assert_well_formed ~ctx q.den;
  if Bigint.sign q.den <= 0 then Sanitize.fail (ctx ^ ": Rational denominator not positive");
  if not (Bigint.equal (Bigint.gcd q.num q.den) Bigint.one) then
    Sanitize.fail (ctx ^ ": Rational not in lowest terms")

let guard ctx q = if !Sanitize.enabled then assert_well_formed ~ctx q
let checked ctx q = guard ctx q; q

let unsafe_of_parts num den = { num; den }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    checked "Rational.make" { num = Bigint.div num g; den = Bigint.div den g }
  end

let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)
let of_int n = { num = Bigint.of_int n; den = Bigint.one }
let of_bigint n = { num = n; den = Bigint.one }

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let half = of_ints 1 2
let minus_one = of_int (-1)

let num q = q.num
let den q = q.den

(* Intended float boundary: the one lossy exit from the exact tower. *)
let to_float q = Bigint.to_float q.num /. Bigint.to_float q.den (* lint: allow R2 *)

let is_zero q = Bigint.is_zero q.num
let is_integer q = Bigint.equal q.den Bigint.one
let sign q = Bigint.sign q.num

let equal a b =
  guard "Rational.equal" a;
  guard "Rational.equal" b;
  Bigint.equal a.num b.num && Bigint.equal a.den b.den

(* Interval filter for the cross products |na·db| vs |nb·da|: each
   factor's 29-bit mantissa bracket (Bigint.approx) bounds the product
   inside [m·m', (m+1)(m'+1)) · 2^E with mantissa products below 2^58,
   so after aligning exponents (a difference of three or more decides
   outright; smaller shifts keep everything under 2^61) the comparison
   is a few native shifts — no Bigint.mul, no allocation.  Returns the
   comparison of the magnitudes, or 0 when the intervals overlap (which
   for reduced operands essentially means the products are equal). *)
let cross_magnitude_filter na da nb db =
  let man, ean = Bigint.approx na and mad, ead = Bigint.approx da in
  let mbn, ebn = Bigint.approx nb and mbd, ebd = Bigint.approx db in
  let lo_a = man * mbd and hi_a = (man + 1) * (mbd + 1) in
  let lo_b = mbn * mad and hi_b = (mbn + 1) * (mad + 1) in
  let ea = ean + ebd and eb = ebn + ead in
  if ea >= eb then begin
    let s = ea - eb in
    if s >= 3 then 1
    else if lo_a lsl s >= hi_b then 1
    else if hi_a lsl s <= lo_b then -1
    else 0
  end
  else begin
    let s = eb - ea in
    if s >= 3 then -1
    else if lo_b lsl s >= hi_a then -1
    else if hi_b lsl s <= lo_a then 1
    else 0
  end

(* [cross_compare na da nb db] is the sign of na/da - nb/db for
   positive denominators, with no lowest-terms assumption (the fused
   sum comparison feeds unreduced fractions through here).  Exits in
   order of cost: signs, shared denominator, shared numerator, native
   cross products, the O(1) limb-size filter, the mantissa interval
   filter, and only then the exact cross multiply — with the
   denominators' common factor cancelled first so the products are as
   small as the inputs allow. *)
let cross_compare na da nb db =
  let sa = Bigint.sign na and sb = Bigint.sign nb in
  if sa <> sb then Int.compare sa sb
  else if sa = 0 then 0
  else if Bigint.equal da db then Bigint.compare na nb
  else if Bigint.equal na nb then
    (* Same (nonzero) numerator: the smaller denominator wins the
       magnitude, and the sign flips the answer. *)
    if sa > 0 then Bigint.compare db da else Bigint.compare da db
  else if
    Bigint.is_native na && Bigint.is_native da && Bigint.is_native nb && Bigint.is_native db
  then Bigint.compare (Bigint.mul na db) (Bigint.mul nb da)
  else begin
    (* For |x| of limb size w, 2^(30(w-1)) <= |x| < 2^(30w): when one
       cross product's limb size is at least two below the other's, the
       smaller product cannot reach the larger's lower bound.  Limb
       sizes are O(1), so the filter costs nothing when it fails. *)
    let wa = Bigint.size na + Bigint.size db in
    let wb = Bigint.size nb + Bigint.size da in
    if wa + 1 < wb then -sa
    else if wb + 1 < wa then sa
    else begin
      let f = cross_magnitude_filter na da nb db in
      if f <> 0 then sa * f
      else begin
        let g = Bigint.gcd da db in
        if Bigint.equal g Bigint.one then
          Bigint.compare (Bigint.mul na db) (Bigint.mul nb da)
        else Bigint.compare (Bigint.mul na (Bigint.div db g)) (Bigint.mul nb (Bigint.div da g))
      end
    end
  end

let compare_unguarded a b = cross_compare a.num a.den b.num b.den

let compare a b =
  guard "Rational.compare" a;
  guard "Rational.compare" b;
  compare_unguarded a b

(* [compare_sum a b c] decides a + b ⋚ c without materialising the sum:
   the unreduced numerator/denominator of a + b feed the same staged
   cross comparison [compare] uses, skipping the gcd normalisation and
   rational allocation of [add].  This is the Nash-inequality kernel —
   "load + weight ⋚ latency·capacity" is exactly this shape. *)
let compare_sum a b c =
  guard "Rational.compare_sum" a;
  guard "Rational.compare_sum" b;
  guard "Rational.compare_sum" c;
  if Bigint.is_zero a.num then cross_compare b.num b.den c.num c.den
  else if Bigint.is_zero b.num then cross_compare a.num a.den c.num c.den
  else if Bigint.equal a.den b.den then
    cross_compare (Bigint.add a.num b.num) a.den c.num c.den
  else
    cross_compare
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den) c.num c.den

(* The unreduced quotient x/y with a positive denominator. *)
let times x y = if Bigint.equal y Bigint.one then x else Bigint.mul x y

let quotient_num x y =
  if Bigint.sign y.num < 0 then Bigint.neg (times x.num y.den) else times x.num y.den

let quotient_den x y = times x.den (Bigint.abs y.num)

(* [compare_div a b c d] decides a/b ⋚ c/d without materialising either
   quotient: a/b is the unreduced (a.num·b.den)/(a.den·b.num), negated
   top and bottom when b < 0 so the denominator stays positive, and the
   two unreduced fractions feed the staged cross comparison.  Unit
   factors are skipped, so integer operands cost no multiply.  This is
   the max-relative-load kernel: "load_l / c_l ⋚ load_l' / c_l'". *)
let compare_div a b c d =
  guard "Rational.compare_div" a;
  guard "Rational.compare_div" b;
  guard "Rational.compare_div" c;
  guard "Rational.compare_div" d;
  if Bigint.is_zero b.num || Bigint.is_zero d.num then raise Division_by_zero;
  cross_compare (quotient_num a b) (quotient_den a b) (quotient_num c d) (quotient_den c d)

let neg q = { q with num = Bigint.neg q.num }
let abs q = { q with num = Bigint.abs q.num }

let inv q =
  if is_zero q then raise Division_by_zero;
  if Bigint.sign q.num > 0 then { num = q.den; den = q.num }
  else { num = Bigint.neg q.den; den = Bigint.neg q.num }

(* [div_g x g] with the unit-gcd division skipped: inputs stay in
   lowest terms throughout, so g is very often 1. *)
let div_g x g = if Bigint.equal g Bigint.one then x else Bigint.div x g

(* Knuth 4.5.1: with both inputs in lowest terms, only the gcd of the
   denominators (and one follow-up gcd) is needed, and when the
   denominators are coprime — in particular equal to each other's 1 —
   the result is already reduced.  The common same-denominator case
   costs one add and one gcd against the shared denominator. *)
let add a b =
  guard "Rational.add" a;
  guard "Rational.add" b;
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else if Bigint.equal a.den b.den then begin
    let n = Bigint.add a.num b.num in
    if Bigint.is_zero n then zero
    else begin
      let g = Bigint.gcd n a.den in
      { num = div_g n g; den = div_g a.den g }
    end
  end
  else begin
    let g1 = Bigint.gcd a.den b.den in
    if Bigint.equal g1 Bigint.one then
      {
        num = Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den);
        den = Bigint.mul a.den b.den;
      }
    else begin
      let da = Bigint.div a.den g1 and db = Bigint.div b.den g1 in
      let t = Bigint.add (Bigint.mul a.num db) (Bigint.mul b.num da) in
      if Bigint.is_zero t then zero
      else begin
        let g2 = Bigint.gcd t g1 in
        { num = div_g t g2; den = Bigint.mul da (div_g b.den g2) }
      end
    end
  end

let sub a b = add a (neg b)

(* Cross-gcd multiplication: cancel num against the opposite den before
   multiplying, after which the product is already in lowest terms. *)
let mul a b =
  guard "Rational.mul" a;
  guard "Rational.mul" b;
  if Bigint.is_zero a.num || Bigint.is_zero b.num then zero
  else begin
    let g1 = Bigint.gcd a.num b.den and g2 = Bigint.gcd b.num a.den in
    {
      num = Bigint.mul (div_g a.num g1) (div_g b.num g2);
      den = Bigint.mul (div_g a.den g2) (div_g b.den g1);
    }
  end

let div a b = mul a (inv b)

(** [sub_mul a b c] is [a - b*c] with the frequent zero factors of
    elimination inner loops short-circuited before any allocation. *)
let sub_mul a b c =
  if Bigint.is_zero b.num || Bigint.is_zero c.num then a else sub a (mul b c)

(* Each operand is validated exactly once at the entry point; the
   underlying comparison runs unguarded so chained min/max folds do not
   pay the sanitizer twice per element. *)
let min a b =
  guard "Rational.min" a;
  guard "Rational.min" b;
  if compare_unguarded a b <= 0 then a else b

let max a b =
  guard "Rational.max" a;
  guard "Rational.max" b;
  if compare_unguarded a b >= 0 then a else b

let sum qs = List.fold_left add zero qs
let sum_array qs = Array.fold_left add zero qs

let floor q =
  let quot, rem = Bigint.divmod q.num q.den in
  if Bigint.is_zero rem || Bigint.sign q.num >= 0 then of_bigint quot
  else of_bigint (Bigint.sub quot Bigint.one)

let ceil q = neg (floor (neg q))

let of_string s =
  let s = String.trim s in
  if String.equal s "" then invalid_arg "Rational.of_string: empty string";
  match String.index_opt s '/' with
  | Some i ->
    let n = Bigint.of_string (String.sub s 0 i) in
    let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    (* Text input is untrusted: a zero denominator is malformed input,
       not the programmer error [make]'s Division_by_zero signals. *)
    if Bigint.is_zero d then invalid_arg (Printf.sprintf "Rational.of_string: %S" s);
    make n d
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let whole = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       if String.equal frac "" then invalid_arg (Printf.sprintf "Rational.of_string: %S" s);
       let negative = String.length whole > 0 && Char.equal whole.[0] '-' in
       let whole_part =
         if String.equal whole "" || String.equal whole "-" || String.equal whole "+"
         then Bigint.zero
         else Bigint.abs (Bigint.of_string whole)
       in
       let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
       let frac_part = Bigint.of_string frac in
       let total = Bigint.add (Bigint.mul whole_part scale) frac_part in
       let q = make total scale in
       if negative then neg q else q)

let to_string q =
  if is_integer q then Bigint.to_string q.num
  else Bigint.to_string q.num ^ "/" ^ Bigint.to_string q.den

let to_decimal_string q ~digits =
  if digits < 0 then invalid_arg "Rational.to_decimal_string: negative digit count";
  let num = Bigint.abs_nat q.num and den = Bigint.abs_nat q.den in
  let whole, rem = Bignat.divmod num den in
  let sign = if Bigint.sign q.num < 0 then "-" else "" in
  if digits = 0 then sign ^ Bignat.to_string whole
  else begin
    (* Scale the remainder by 10^digits and divide once more. *)
    let scaled = Bignat.mul rem (Bignat.pow (Bignat.of_int 10) digits) in
    let frac, _ = Bignat.divmod scaled den in
    let frac_str = Bignat.to_string frac in
    let padded = String.make (digits - String.length frac_str) '0' ^ frac_str in
    sign ^ Bignat.to_string whole ^ "." ^ padded
  end

let pp fmt q = Format.pp_print_string fmt (to_string q)
