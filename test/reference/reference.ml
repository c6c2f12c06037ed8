(* The seed (array-only) numeric tower, kept verbatim as a differential
   oracle.  [Nat]/[Int]/[Q] are the pre-fast-path implementations of
   Bignat/Bigint/Rational: every value is a limb array (no tagged
   small-int representation), every gcd is the full Euclidean loop.

   test/test_differential.ml drives randomized op sequences against
   both towers and requires bit-for-bit agreement of the decimal
   renderings; bench/main.ml times this tower against the live one to
   produce the numeric speedup rows of BENCH.json.  Do not "improve"
   this module: its value is that it does not change. *)

module Nat = struct
  let base_bits = 30
  let base = 1 lsl base_bits
  let limb_mask = base - 1

  type t = int array

  let zero : t = [||]
  let one : t = [| 1 |]
  let two : t = [| 2 |]

  let is_zero n = Array.length n = 0

  let normalize (a : int array) : t =
    let len = ref (Array.length a) in
    while !len > 0 && a.(!len - 1) = 0 do decr len done;
    if !len = Array.length a then a else Array.sub a 0 !len

  let of_int n =
    if n < 0 then invalid_arg "Reference.Nat.of_int: negative argument"
    else if n = 0 then zero
    else begin
      let rec count_limbs acc v = if v = 0 then acc else count_limbs (acc + 1) (v lsr base_bits) in
      let len = count_limbs 0 n in
      let a = Array.make len 0 in
      let v = ref n in
      for i = 0 to len - 1 do
        a.(i) <- !v land limb_mask;
        v := !v lsr base_bits
      done;
      a
    end

  let to_int_opt n =
    if Array.length n > 3 then None
    else begin
      let rec fold i acc =
        if i < 0 then Some acc
        else if acc > (max_int - n.(i)) / base then None
        else fold (i - 1) ((acc lsl base_bits) lor n.(i))
      in
      if Array.length n = 3 && n.(2) >= 8 then None
      else fold (Array.length n - 1) 0
    end

  let to_int_exn n =
    match to_int_opt n with
    | Some i -> i
    | None -> failwith "Reference.Nat.to_int_exn: value exceeds native int range"

  let equal (a : t) (b : t) = a = b

  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else begin
      let rec cmp i =
        if i < 0 then 0
        else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
        else cmp (i - 1)
      in
      cmp (la - 1)
    end

  let add (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    let lr = 1 + max la lb in
    let r = Array.make lr 0 in
    let carry = ref 0 in
    for i = 0 to lr - 2 do
      let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr base_bits
    done;
    r.(lr - 1) <- !carry;
    normalize r

  let sub (a : t) (b : t) : t =
    if compare a b < 0 then invalid_arg "Reference.Nat.sub: underflow";
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
      if s < 0 then begin r.(i) <- s + base; borrow := 1 end
      else begin r.(i) <- s; borrow := 0 end
    done;
    assert (!borrow = 0);
    normalize r

  let succ n = add n one
  let pred n = sub n one

  let mul (a : t) (b : t) : t =
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then zero
    else begin
      let r = Array.make (la + lb) 0 in
      for i = 0 to la - 1 do
        let carry = ref 0 in
        let ai = a.(i) in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr base_bits
        done;
        r.(i + lb) <- !carry
      done;
      normalize r
    end

  let num_bits (n : t) =
    let len = Array.length n in
    if len = 0 then 0
    else begin
      let top = n.(len - 1) in
      let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
      ((len - 1) * base_bits) + bits 0 top
    end

  let shift_left (n : t) k =
    if k < 0 then invalid_arg "Reference.Nat.shift_left: negative shift";
    if is_zero n || k = 0 then n
    else begin
      let limbs = k / base_bits and bits = k mod base_bits in
      let len = Array.length n in
      let r = Array.make (len + limbs + 1) 0 in
      for i = 0 to len - 1 do
        let v = n.(i) lsl bits in
        r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
        r.(i + limbs + 1) <- v lsr base_bits
      done;
      normalize r
    end

  let shift_right (n : t) k =
    if k < 0 then invalid_arg "Reference.Nat.shift_right: negative shift";
    if is_zero n || k = 0 then n
    else begin
      let limbs = k / base_bits and bits = k mod base_bits in
      let len = Array.length n in
      if limbs >= len then zero
      else begin
        let rlen = len - limbs in
        let r = Array.make rlen 0 in
        for i = 0 to rlen - 1 do
          let lo = n.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < len then (n.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask else 0 in
          r.(i) <- if bits = 0 then n.(i + limbs) else lo lor hi
        done;
        normalize r
      end
    end

  let divmod_small (a : t) (d : int) : t * t =
    let len = Array.length a in
    let q = Array.make len 0 in
    let r = ref 0 in
    for i = len - 1 downto 0 do
      let acc = (!r lsl base_bits) lor a.(i) in
      q.(i) <- acc / d;
      r := acc mod d
    done;
    (normalize q, of_int !r)

  let divmod_knuth (a : t) (b : t) : t * t =
    let n = Array.length b in
    let rec top_bits acc v = if v = 0 then acc else top_bits (acc + 1) (v lsr 1) in
    let s = base_bits - top_bits 0 b.(n - 1) in
    let v = shift_left b s in
    let ua = shift_left a s in
    let ulen = Array.length ua in
    let u = Array.make (ulen + 1) 0 in
    Array.blit ua 0 u 0 ulen;
    let m = Array.length u - n - 1 in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vsnd = v.(n - 2) in
    for j = m downto 0 do
      let num2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (num2 / vtop) and rhat = ref (num2 mod vtop) in
      let continue = ref true in
      while !continue
            && (!qhat >= base
                || !qhat * vsnd > (!rhat lsl base_bits) lor u.(j + n - 2)) do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue := false
      done;
      let carry = ref 0 and borrowed = ref false in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        let t = u.(j + i) - (p land limb_mask) in
        if t < 0 then begin
          u.(j + i) <- t + base;
          carry := (p lsr base_bits) + 1
        end else begin
          u.(j + i) <- t;
          carry := p lsr base_bits
        end
      done;
      let t = u.(j + n) - !carry in
      if t < 0 then begin u.(j + n) <- t + base; borrowed := true end
      else u.(j + n) <- t;
      if !borrowed then begin
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let sum = u.(j + i) + v.(i) + !c in
          u.(j + i) <- sum land limb_mask;
          c := sum lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r s)

  let divmod (a : t) (b : t) : t * t =
    if is_zero b then raise Division_by_zero
    else if compare a b < 0 then (zero, a)
    else if Array.length b = 1 then divmod_small a b.(0)
    else divmod_knuth a b

  let div a b = fst (divmod a b)
  let rem a b = snd (divmod a b)

  let rec gcd a b = if is_zero b then a else gcd b (rem a b)

  let pow b e =
    if e < 0 then invalid_arg "Reference.Nat.pow: negative exponent";
    let rec go acc b e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (e lsr 1)
      end
    in
    go one b e

  let decimal_chunk = 1_000_000_000

  let to_string (n : t) =
    if is_zero n then "0"
    else begin
      let buf = Buffer.create 32 in
      let rec chunks acc n =
        if is_zero n then acc
        else begin
          let q, r = divmod_small n decimal_chunk in
          chunks (to_int_exn r :: acc) q
        end
      in
      match chunks [] n with
      | [] -> assert false
      | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
    end

  let of_string s =
    let digits = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        if c >= '0' && c <= '9' then Buffer.add_char digits c
        else if c <> '_' then invalid_arg (Printf.sprintf "Reference.Nat.of_string: %S" s))
      s;
    let d = Buffer.contents digits in
    if d = "" then invalid_arg (Printf.sprintf "Reference.Nat.of_string: %S" s);
    let len = String.length d in
    let acc = ref zero in
    let pos = ref 0 in
    while !pos < len do
      let take = min 9 (len - !pos) in
      let chunk = int_of_string (String.sub d !pos take) in
      acc := add (mul !acc (pow (of_int 10) take)) (of_int chunk);
      pos := !pos + take
    done;
    !acc

  let to_float (n : t) =
    Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) n 0.0
end

module Int = struct
  type t =
    | Zero
    | Pos of Nat.t
    | Neg of Nat.t

  let zero = Zero
  let one = Pos Nat.one
  let minus_one = Neg Nat.one

  let of_nat n = if Nat.is_zero n then Zero else Pos n

  let of_int n =
    if n = 0 then Zero
    else if n > 0 then Pos (Nat.of_int n)
    else if n = min_int then Neg (Nat.succ (Nat.of_int (-(n + 1))))
    else Neg (Nat.of_int (-n))

  let to_int_opt = function
    | Zero -> Some 0
    | Pos m -> Nat.to_int_opt m
    | Neg m ->
      (match Nat.to_int_opt (Nat.pred m) with
       | Some i when i < max_int -> Some (-(i + 1))
       | Some i -> Some (-i - 1)
       | None -> None)

  let abs_nat = function Zero -> Nat.zero | Pos m | Neg m -> m
  let sign = function Zero -> 0 | Pos _ -> 1 | Neg _ -> -1
  let is_zero n = n = Zero

  let equal (a : t) (b : t) =
    match a, b with
    | Zero, Zero -> true
    | Pos x, Pos y | Neg x, Neg y -> Nat.equal x y
    | _ -> false

  let compare a b =
    match a, b with
    | Zero, Zero -> 0
    | Zero, Pos _ | Neg _, (Zero | Pos _) -> -1
    | Zero, Neg _ | Pos _, (Zero | Neg _) -> 1
    | Pos x, Pos y -> Nat.compare x y
    | Neg x, Neg y -> Nat.compare y x

  let neg = function Zero -> Zero | Pos m -> Neg m | Neg m -> Pos m
  let abs = function Neg m -> Pos m | n -> n

  let add a b =
    match a, b with
    | Zero, n | n, Zero -> n
    | Pos x, Pos y -> Pos (Nat.add x y)
    | Neg x, Neg y -> Neg (Nat.add x y)
    | Pos x, Neg y | Neg y, Pos x ->
      let c = Nat.compare x y in
      if c = 0 then Zero
      else if c > 0 then Pos (Nat.sub x y)
      else Neg (Nat.sub y x)

  let sub a b = add a (neg b)

  let mul a b =
    match a, b with
    | Zero, _ | _, Zero -> Zero
    | Pos x, Pos y | Neg x, Neg y -> Pos (Nat.mul x y)
    | Pos x, Neg y | Neg x, Pos y -> Neg (Nat.mul x y)

  let divmod a b =
    if is_zero b then raise Division_by_zero;
    let q, r = Nat.divmod (abs_nat a) (abs_nat b) in
    let quotient =
      if sign a * sign b >= 0 then of_nat q
      else neg (of_nat q)
    in
    let remainder = if sign a >= 0 then of_nat r else neg (of_nat r) in
    (quotient, remainder)

  let div a b = fst (divmod a b)
  let rem a b = snd (divmod a b)
  let gcd a b = of_nat (Nat.gcd (abs_nat a) (abs_nat b))

  let pow b e =
    if e < 0 then invalid_arg "Reference.Int.pow: negative exponent";
    let mag = Nat.pow (abs_nat b) e in
    match sign b with
    | 0 -> if e = 0 then one else Zero
    | 1 -> of_nat mag
    | _ -> if e land 1 = 0 then of_nat mag else neg (of_nat mag)

  let to_string = function
    | Zero -> "0"
    | Pos m -> Nat.to_string m
    | Neg m -> "-" ^ Nat.to_string m

  let of_string s =
    if s = "" then invalid_arg "Reference.Int.of_string: empty string"
    else if s.[0] = '-' then
      neg (of_nat (Nat.of_string (String.sub s 1 (String.length s - 1))))
    else if s.[0] = '+' then
      of_nat (Nat.of_string (String.sub s 1 (String.length s - 1)))
    else of_nat (Nat.of_string s)

  let to_float = function
    | Zero -> 0.0
    | Pos m -> Nat.to_float m
    | Neg m -> -.Nat.to_float m
end

module Q = struct
  type t = { num : Int.t; den : Int.t }
  (* Invariant: den > 0 and gcd(|num|, den) = 1. *)

  let make num den =
    if Int.is_zero den then raise Division_by_zero;
    if Int.is_zero num then { num = Int.zero; den = Int.one }
    else begin
      let num, den = if Int.sign den < 0 then (Int.neg num, Int.neg den) else (num, den) in
      let g = Int.gcd num den in
      { num = Int.div num g; den = Int.div den g }
    end

  let of_ints a b = make (Int.of_int a) (Int.of_int b)
  let of_int n = { num = Int.of_int n; den = Int.one }
  let of_bigint n = { num = n; den = Int.one }

  let zero = of_int 0
  let one = of_int 1

  let num q = q.num
  let den q = q.den

  let to_float q = Int.to_float q.num /. Int.to_float q.den

  let of_float_dyadic f =
    if not (Float.is_finite f) then invalid_arg "Reference.Q.of_float_dyadic: not finite";
    let mantissa, exponent = Float.frexp f in
    let scaled = Int64.to_int (Int64.of_float (Float.ldexp mantissa 53)) in
    let num = Int.of_int scaled in
    let e = exponent - 53 in
    if e >= 0 then make (Int.mul num (Int.pow (Int.of_int 2) e)) Int.one
    else make num (Int.pow (Int.of_int 2) (-e))

  let is_zero q = Int.is_zero q.num
  let is_integer q = Int.equal q.den Int.one
  let sign q = Int.sign q.num

  let equal a b = Int.equal a.num b.num && Int.equal a.den b.den

  let compare a b =
    Int.compare (Int.mul a.num b.den) (Int.mul b.num a.den)

  let neg q = { q with num = Int.neg q.num }
  let abs q = { q with num = Int.abs q.num }

  let inv q =
    if is_zero q then raise Division_by_zero;
    if Int.sign q.num > 0 then { num = q.den; den = q.num }
    else { num = Int.neg q.den; den = Int.neg q.num }

  let add a b =
    make
      (Int.add (Int.mul a.num b.den) (Int.mul b.num a.den))
      (Int.mul a.den b.den)

  let sub a b = add a (neg b)
  let mul a b = make (Int.mul a.num b.num) (Int.mul a.den b.den)
  let div a b = mul a (inv b)

  let floor q =
    let quot, rem = Int.divmod q.num q.den in
    if Int.is_zero rem || Int.sign q.num >= 0 then of_bigint quot
    else of_bigint (Int.sub quot Int.one)

  let ceil q = neg (floor (neg q))

  let of_string s =
    let s = String.trim s in
    if String.equal s "" then invalid_arg "Reference.Q.of_string: empty string";
    match String.index_opt s '/' with
    | Some i ->
      let n = Int.of_string (String.sub s 0 i) in
      let d = Int.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make n d
    | None ->
      (match String.index_opt s '.' with
       | None -> of_bigint (Int.of_string s)
       | Some i ->
         let whole = String.sub s 0 i in
         let frac = String.sub s (i + 1) (String.length s - i - 1) in
         if String.equal frac "" then invalid_arg (Printf.sprintf "Reference.Q.of_string: %S" s);
         let negative = String.length whole > 0 && Char.equal whole.[0] '-' in
         let whole_part =
           if String.equal whole "" || String.equal whole "-" || String.equal whole "+"
           then Int.zero
           else Int.abs (Int.of_string whole)
         in
         let scale = Int.pow (Int.of_int 10) (String.length frac) in
         let frac_part = Int.of_string frac in
         let total = Int.add (Int.mul whole_part scale) frac_part in
         let q = make total scale in
         if negative then neg q else q)

  let to_string q =
    if is_integer q then Int.to_string q.num
    else Int.to_string q.num ^ "/" ^ Int.to_string q.den

  let to_decimal_string q ~digits =
    if digits < 0 then invalid_arg "Reference.Q.to_decimal_string: negative digit count";
    let num = Int.abs_nat q.num and den = Int.abs_nat q.den in
    let whole, rem = Nat.divmod num den in
    let sign = if Int.sign q.num < 0 then "-" else "" in
    if digits = 0 then sign ^ Nat.to_string whole
    else begin
      let scaled = Nat.mul rem (Nat.pow (Nat.of_int 10) digits) in
      let frac, _ = Nat.divmod scaled den in
      let frac_str = Nat.to_string frac in
      let padded = String.make (digits - String.length frac_str) '0' ^ frac_str in
      sign ^ Nat.to_string whole ^ "." ^ padded
    end
end
