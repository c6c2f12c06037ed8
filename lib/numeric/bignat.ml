(* Little-endian arrays of 30-bit limbs, no leading-zero limb.  All limb
   arithmetic stays within the native 63-bit [int]: a limb product is at
   most (2^30-1)^2 < 2^60, leaving room for carries. *)

let base_bits = 30
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]

let is_zero n = Array.length n = 0

let assert_well_formed ~ctx (n : t) =
  let len = Array.length n in
  if len > 0 && n.(len - 1) = 0 then
    Sanitize.fail (ctx ^ ": Bignat with a high zero limb");
  for i = 0 to len - 1 do
    if n.(i) < 0 || n.(i) >= base then
      Sanitize.fail (Printf.sprintf "%s: Bignat limb %d = %d outside [0, 2^30)" ctx i n.(i))
  done

let guard ctx n = if !Sanitize.enabled then assert_well_formed ~ctx n
let checked ctx n = guard ctx n; n

let unsafe_of_limbs a : t = Array.copy a

(* Drop leading (high-order) zero limbs so representations are canonical. *)
let normalize (a : int array) : t =
  let len = ref (Array.length a) in
  while !len > 0 && a.(!len - 1) = 0 do decr len done;
  checked "Bignat.normalize" (if !len = Array.length a then a else Array.sub a 0 !len)

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative argument"
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
    checked "Bignat.of_int" a
  end

let to_int_opt n =
  (* max_int occupies 63 bits = 2 full limbs + 3 bits of a third. *)
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
  | None -> failwith "Bignat.to_int_exn: value exceeds native int range"

(* Structural equality on the canonical limb arrays IS numerical
   equality; int-array contents keep the comparison monomorphic. *)
let equal (a : t) (b : t) =
  guard "Bignat.equal" a;
  guard "Bignat.equal" b;
  Array.length a = Array.length b
  &&
  let rec eq i = i < 0 || (a.(i) = b.(i) && eq (i - 1)) in
  eq (Array.length a - 1)

let compare (a : t) (b : t) =
  guard "Bignat.compare" a;
  guard "Bignat.compare" b;
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

(* FNV-1a folded over the canonical little-endian limbs.  Hashing the
   limb list explicitly (rather than [Hashtbl.hash] on the raw array)
   keeps the hash a function of the mathematical value alone and
   independent of [Hashtbl.hash]'s traversal limits, which silently
   truncate large structures. *)
let hash (n : t) =
  guard "Bignat.hash" n;
  let h = ref 0x811C9DC5 in
  for i = 0 to Array.length n - 1 do
    h := (!h lxor n.(i)) * 0x01000193
  done;
  (!h lxor Array.length n) land max_int

let add (a : t) (b : t) : t =
  guard "Bignat.add" a;
  guard "Bignat.add" b;
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
  guard "Bignat.sub" a;
  guard "Bignat.sub" b;
  if compare a b < 0 then invalid_arg "Bignat.sub: underflow";
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
  guard "Bignat.mul" a;
  guard "Bignat.mul" b;
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

let num_limbs (n : t) = Array.length n

let num_bits (n : t) =
  let len = Array.length n in
  if len = 0 then 0
  else begin
    let top = n.(len - 1) in
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    ((len - 1) * base_bits) + bits 0 top
  end

(* 29-bit mantissa bracket: for n > 0, [approx n] is [(mant, e)] with
   [2^28 <= mant < 2^29] and [mant·2^e <= n < (mant+1)·2^e] (the
   exponent may be negative for small values; callers only ever use
   exponent differences).  O(1): only the top two limbs contribute, and
   the truncated low limbs are absorbed by the half-open bracket. *)
(* Branch-tree bit length for a positive native value: six halving
   steps instead of one iteration per bit, because [approx] sits on the
   comparison hot path. *)
let bits_native v =
  let n = ref 0 and v = ref v in
  if !v >= 1 lsl 32 then begin v := !v lsr 32; n := !n + 32 end;
  if !v >= 1 lsl 16 then begin v := !v lsr 16; n := !n + 16 end;
  if !v >= 1 lsl 8 then begin v := !v lsr 8; n := !n + 8 end;
  if !v >= 1 lsl 4 then begin v := !v lsr 4; n := !n + 4 end;
  if !v >= 1 lsl 2 then begin v := !v lsr 2; n := !n + 2 end;
  if !v >= 2 then begin v := !v lsr 1; n := !n + 1 end;
  !n + !v

let approx (n : t) =
  let len = Array.length n in
  if len = 0 then invalid_arg "Bignat.approx: zero";
  let v, base =
    if len = 1 then (n.(0), 0)
    else ((n.(len - 1) lsl base_bits) lor n.(len - 2), (len - 2) * base_bits)
  in
  let bv = bits_native v in
  let e = base + bv - 29 in
  if bv >= 29 then (v lsr (bv - 29), e) else (v lsl (29 - bv), e)

let shift_left (n : t) k =
  if k < 0 then invalid_arg "Bignat.shift_left: negative shift";
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
  if k < 0 then invalid_arg "Bignat.shift_right: negative shift";
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

(* Division by a single limb, most-significant first. *)
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

(* Knuth algorithm D for a multi-limb divisor. *)
let divmod_knuth (a : t) (b : t) : t * t =
  let n = Array.length b in
  (* Normalise: shift so the divisor's top limb has its high bit set. *)
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
    (* Estimate the quotient digit from the top limbs. *)
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
    (* Multiply and subtract: u[j .. j+n] -= qhat * v. *)
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
      (* The estimate was one too large; add the divisor back. *)
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
  guard "Bignat.divmod" a;
  guard "Bignat.divmod" b;
  if is_zero b then raise Division_by_zero
  else if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_small a b.(0)
  else divmod_knuth a b

let rem a b = snd (divmod a b)

(* Binary GCD on non-negative native ints: no division, and the whole
   loop runs in registers.  This is the workhorse of the small-value
   fast path — every [Rational] normalisation on native-sized operands
   lands here. *)
let gcd_int a b =
  if a < 0 || b < 0 then invalid_arg "Bignat.gcd_int: negative argument";
  if a = 0 then b
  else if b = 0 then a
  else begin
    let a = ref a and b = ref b in
    let shift = ref 0 in
    while (!a lor !b) land 1 = 0 do
      a := !a lsr 1;
      b := !b lsr 1;
      incr shift
    done;
    while !a land 1 = 0 do a := !a lsr 1 done;
    let continue = ref true in
    while !continue do
      while !b land 1 = 0 do b := !b lsr 1 done;
      if !a > !b then begin
        let t = !a in
        a := !b;
        b := t
      end;
      b := !b - !a;
      if !b = 0 then continue := false
    done;
    !a lsl !shift
  end

(* Euclid on limb arrays, dropping to the native binary GCD as soon as
   both operands fit in an int (after one reduction step they almost
   always do). *)
let rec gcd a b =
  guard "Bignat.gcd" a;
  guard "Bignat.gcd" b;
  match to_int_opt a, to_int_opt b with
  | Some x, Some y -> of_int (gcd_int x y)
  | _ -> if is_zero b then a else gcd b (rem a b)

let pow b e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let decimal_chunk = 1_000_000_000 (* 10^9 < 2^30: fits in one limb *)

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
      else if c <> '_' then invalid_arg (Printf.sprintf "Bignat.of_string: %S" s))
    s;
  let d = Buffer.contents digits in
  if d = "" then invalid_arg (Printf.sprintf "Bignat.of_string: %S" s);
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

(* Intended float boundary: the one lossy exit from the exact tower. *)
let to_float (n : t) =
  Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) n 0.0 (* lint: allow R2 *)
