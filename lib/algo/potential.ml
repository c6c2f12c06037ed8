open Model
open Numeric

(* Walk the square a → b → c → d → a with balanced [move]/[undo] pairs
   on the view, reading the two movers' latencies at each corner; the
   seed allocated four profile copies and paid an O(n) load scan for
   each of the eight latencies. *)
let square_defect_v v ~i ~j ~li ~lj =
  if i = j then invalid_arg "Potential.square_defect: users must differ";
  let ai = View.latency v i and aj = View.latency v j in
  View.move v i li;
  (* at b = a[i ↦ li] *)
  let bi = View.latency v i and bj = View.latency v j in
  View.move v j lj;
  (* at c = b[j ↦ lj] *)
  let ci = View.latency v i and cj = View.latency v j in
  View.undo v;
  View.undo v;
  View.move v j lj;
  (* at d = a[j ↦ lj] *)
  let di = View.latency v i and dj = View.latency v j in
  View.undo v;
  (* Monderer–Shapley: (u_i(b) - u_i(a)) + (u_j(c) - u_j(b))
     + (u_i(d) - u_i(c)) + (u_j(a) - u_j(d)) = 0 for exact potentials. *)
  Rational.sum
    [ Rational.sub bi ai; Rational.sub cj bj; Rational.sub di ci; Rational.sub aj dj ]

let square_defect g sigma ~i ~j ~li ~lj = square_defect_v (View.of_profile g sigma) ~i ~j ~li ~lj

let budget = 100_000

let find_nonzero_square g =
  let n = Game.users g and m = Game.links g in
  ignore
    (Combinat.search_space ~who:"Potential.find_nonzero_square" ~what:"pure profiles" ~budget m n);
  let witness = ref None in
  (try
     View.sweep g (fun v ->
         for i = 0 to n - 1 do
           for j = i + 1 to n - 1 do
             for li = 0 to m - 1 do
               if li <> View.link v i then
                 for lj = 0 to m - 1 do
                   if lj <> View.link v j then
                     if not (Rational.is_zero (square_defect_v v ~i ~j ~li ~lj)) then begin
                       witness := Some (View.profile v, i, j, li, lj);
                       raise Exit
                     end
                 done
             done
           done
         done)
   with Exit -> ());
  !witness

let is_exact_potential_game g = find_nonzero_square g = None

let rosenthal g sigma =
  if not (Game.is_symmetric g) then
    invalid_arg "Potential.rosenthal: users must have equal weights";
  if not (Game.is_kp g) then invalid_arg "Potential.rosenthal: game must be a KP instance";
  Pure.validate g sigma;
  let m = Game.links g in
  let counts = Array.make m 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) sigma;
  let w = Game.weight g 0 in
  let acc = ref Rational.zero in
  for l = 0 to m - 1 do
    (* Σ_{k=1}^{N_ℓ} k·w / c^ℓ  =  w·N(N+1)/2 / c^ℓ *)
    let nl = counts.(l) in
    let tri = Rational.of_ints (nl * (nl + 1)) 2 in
    acc := Rational.add !acc (Rational.div (Rational.mul w tri) (Game.capacity g 0 l))
  done;
  !acc
