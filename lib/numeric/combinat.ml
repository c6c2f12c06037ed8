(* Multiplicative binomial: the running value after step [i] is
   C(n - k + i, i), so every intermediate division is exact. *)
let choose n k =
  if n < 0 then invalid_arg "Combinat.choose: negative n";
  if k < 0 || k > n then Bigint.zero
  else begin
    let k = if k > n - k then n - k else k in
    let c = ref Bigint.one in
    for i = 1 to k do
      c := Bigint.div (Bigint.mul !c (Bigint.of_int (n - k + i))) (Bigint.of_int i)
    done;
    !c
  end

(* (Σ parts)! / Π parts!  as a product of incremental binomials:
   C(p_1; p_1) · C(p_1+p_2; p_2) · … — each factor counts the ways to
   choose the next group from the users placed so far. *)
let multinomial parts =
  let acc = ref Bigint.one and placed = ref 0 in
  Array.iter
    (fun p ->
      if p < 0 then invalid_arg "Combinat.multinomial: negative part";
      placed := !placed + p;
      acc := Bigint.mul !acc (choose !placed p))
    parts;
  !acc

let factorial n =
  if n < 0 then invalid_arg "Combinat.factorial: negative n";
  let acc = ref Bigint.one in
  for i = 2 to n do
    acc := Bigint.mul !acc (Bigint.of_int i)
  done;
  !acc

let compositions ~total ~parts =
  if total < 0 then invalid_arg "Combinat.compositions: negative total";
  if parts < 1 then invalid_arg "Combinat.compositions: need at least one part";
  choose (total + parts - 1) (parts - 1)

let compositions_int ~total ~parts =
  match Bigint.to_int_opt (compositions ~total ~parts) with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf
         "Combinat.compositions_int: C(%d+%d-1, %d-1) overflows a native int" total parts parts)

let iter_compositions ~total ~parts f =
  if total < 0 then invalid_arg "Combinat.iter_compositions: negative total";
  if parts < 1 then invalid_arg "Combinat.iter_compositions: need at least one part";
  let buf = Array.make parts 0 in
  (* The last part absorbs the remainder, so the recursion depth is
     [parts - 1] and each leaf touches only the suffix it changed. *)
  let rec go i remaining =
    if i = parts - 1 then begin
      buf.(i) <- remaining;
      f buf;
      buf.(i) <- 0
    end
    else begin
      for k = 0 to remaining do
        buf.(i) <- k;
        go (i + 1) (remaining - k)
      done;
      buf.(i) <- 0
    end
  in
  go 0 total

(* For [b >= 2] the result passes [max_int] within 62 factors, so the
   linear loop is short; [b <= 1] never grows and returns at once. *)
let pow b e =
  if b < 0 || e < 0 then invalid_arg "Combinat.pow: negative argument";
  if b <= 1 then Some (if e = 0 then 1 else b)
  else
    let rec go acc e =
      if e = 0 then Some acc else if acc > max_int / b then None else go (acc * b) (e - 1)
    in
    go 1 e

let search_space ~who ~what ~budget b e =
  match pow b e with
  | Some c when c <= budget -> c
  | _ -> invalid_arg (Printf.sprintf "%s: %d^%d %s exceed the limit %d" who b e what budget)

let iter_odometer ~digits ~base f =
  let d = Array.make digits 0 in
  let rec next i =
    if i < 0 then false
    else if d.(i) + 1 < base then begin
      d.(i) <- d.(i) + 1;
      true
    end
    else begin
      d.(i) <- 0;
      next (i - 1)
    end
  in
  let continue = ref true in
  while !continue do
    f d;
    continue := next (digits - 1)
  done
