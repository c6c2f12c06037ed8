type t = { data : Rational.t array array } (* rectangular, rows of equal length *)

let make rows cols q =
  if rows <= 0 || cols <= 0 then invalid_arg "Qmat.make: dimensions must be positive";
  { data = Array.init rows (fun _ -> Array.make cols q) }

let init rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Qmat.init: dimensions must be positive";
  { data = Array.init rows (fun i -> Array.init cols (f i)) }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Qmat.of_arrays: no rows";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Qmat.of_arrays: empty rows";
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Qmat.of_arrays: ragged rows") a;
  { data = Array.map Array.copy a }

let identity n =
  init n n (fun i j -> if i = j then Rational.one else Rational.zero)

let rows m = Array.length m.data
let cols m = Array.length m.data.(0)
let get m i j = m.data.(i).(j)
let set m i j q = m.data.(i).(j) <- q
let copy m = { data = Array.map Array.copy m.data }

let transpose m = init (cols m) (rows m) (fun i j -> m.data.(j).(i))

let equal a b =
  rows a = rows b && cols a = cols b
  && Array.for_all2 (Array.for_all2 Rational.equal) a.data b.data

let mul a b =
  if cols a <> rows b then invalid_arg "Qmat.mul: dimension mismatch";
  init (rows a) (cols b) (fun i j ->
      let acc = ref Rational.zero in
      for k = 0 to cols a - 1 do
        acc := Rational.add !acc (Rational.mul a.data.(i).(k) b.data.(k).(j))
      done;
      !acc)

let mul_vec a v =
  if cols a <> Array.length v then invalid_arg "Qmat.mul_vec: dimension mismatch";
  Array.init (rows a) (fun i ->
      let acc = ref Rational.zero in
      for k = 0 to cols a - 1 do
        acc := Rational.add !acc (Rational.mul a.data.(i).(k) v.(k))
      done;
      !acc)

(* Forward elimination into row-echelon form; returns the pivot column
   of each pivot row.  Mutates [m] (callers pass a copy). *)
let echelon (m : t) =
  let nr = rows m and nc = cols m in
  let pivots = ref [] in
  let row = ref 0 in
  let col = ref 0 in
  while !row < nr && !col < nc do
    (* Find a non-zero pivot in this column at or below [row]. *)
    let pivot = ref (-1) in
    for i = !row to nr - 1 do
      if !pivot < 0 && not (Rational.is_zero m.data.(i).(!col)) then pivot := i
    done;
    if !pivot < 0 then incr col
    else begin
      let p = !pivot in
      if p <> !row then begin
        let tmp = m.data.(p) in
        m.data.(p) <- m.data.(!row);
        m.data.(!row) <- tmp
      end;
      let inv = Rational.inv m.data.(!row).(!col) in
      for j = !col to nc - 1 do
        m.data.(!row).(j) <- Rational.mul inv m.data.(!row).(j)
      done;
      for i = 0 to nr - 1 do
        if i <> !row && not (Rational.is_zero m.data.(i).(!col)) then begin
          let factor = m.data.(i).(!col) in
          for j = !col to nc - 1 do
            m.data.(i).(j) <- Rational.sub_mul m.data.(i).(j) factor m.data.(!row).(j)
          done
        end
      done;
      pivots := !col :: !pivots;
      incr row;
      incr col
    end
  done;
  List.rev !pivots

let rank m = List.length (echelon (copy m))

let det m =
  if rows m <> cols m then invalid_arg "Qmat.det: matrix must be square";
  let n = rows m in
  let a = copy m in
  let d = ref Rational.one in
  (* Fraction-free-ish elimination tracking the determinant. *)
  (try
     for col = 0 to n - 1 do
       let pivot = ref (-1) in
       for i = col to n - 1 do
         if !pivot < 0 && not (Rational.is_zero a.data.(i).(col)) then pivot := i
       done;
       if !pivot < 0 then begin
         d := Rational.zero;
         raise Exit
       end;
       if !pivot <> col then begin
         let tmp = a.data.(!pivot) in
         a.data.(!pivot) <- a.data.(col);
         a.data.(col) <- tmp;
         d := Rational.neg !d
       end;
       d := Rational.mul !d a.data.(col).(col);
       let inv = Rational.inv a.data.(col).(col) in
       for i = col + 1 to n - 1 do
         if not (Rational.is_zero a.data.(i).(col)) then begin
           let factor = Rational.mul inv a.data.(i).(col) in
           for j = col to n - 1 do
             a.data.(i).(j) <- Rational.sub_mul a.data.(i).(j) factor a.data.(col).(j)
           done
         end
       done
     done
   with Exit -> ());
  !d

let solve a b =
  let n = rows a in
  if n <> cols a then invalid_arg "Qmat.solve: matrix must be square";
  if Array.length b <> n then invalid_arg "Qmat.solve: vector dimension mismatch";
  (* Eliminate on the augmented matrix [a | b]. *)
  let aug = init n (n + 1) (fun i j -> if j = n then b.(i) else a.data.(i).(j)) in
  let pivots = echelon aug in
  if List.length pivots <> n || List.exists (fun c -> c >= n) pivots then None
  else Some (Array.init n (fun i -> aug.data.(i).(n)))
