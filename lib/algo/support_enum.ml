open Model
open Numeric

type finding = {
  profile : Mixed.profile;
  supports : int list array;
  latencies : Rational.t array;
}

type result = { equilibria : finding list; degenerate_supports : int }

type outcome = Equilibrium of finding | Rejected | Degenerate

let links_of_mask m mask =
  List.filter (fun l -> mask land (1 lsl l) <> 0) (List.init m Fun.id)

let classify g supports =
  let n = Game.users g and m = Game.links g in
  if Array.length supports <> n then invalid_arg "Support_enum.solve_support: wrong arity";
  Array.iter
    (fun s ->
      if s = [] then invalid_arg "Support_enum.solve_support: empty support";
      List.iter
        (fun l -> if l < 0 || l >= m then invalid_arg "Support_enum.solve_support: link out of range")
        s)
    supports;
  (* Variable layout: the probabilities p^l_i for l ∈ S_i (in support
     order, user-major), followed by the latencies λ_0 … λ_{n-1}. *)
  let offsets = Array.make n 0 in
  let total_p = ref 0 in
  Array.iteri
    (fun i s ->
      offsets.(i) <- !total_p;
      total_p := !total_p + List.length s)
    supports;
  let nvars = !total_p + n in
  let var_p i l =
    let rec pos k = function
      | [] -> invalid_arg "Support_enum: link not in support"
      | x :: rest -> if x = l then k else pos (k + 1) rest
    in
    offsets.(i) + pos 0 supports.(i)
  in
  let var_lambda i = !total_p + i in
  let matrix = Qmat.make nvars nvars Rational.zero in
  let rhs = Array.make nvars Rational.zero in
  let row = ref 0 in
  (* Equal-latency equations: for i and l ∈ S_i,
     -w_i·p^l_i + Σ_{k : l ∈ S_k} w_k·p^l_k - c^l_i·λ_i = -w_i. *)
  for i = 0 to n - 1 do
    List.iter
      (fun l ->
        let r = !row in
        Qmat.set matrix r (var_p i l) (Rational.neg (Game.weight g i));
        for k = 0 to n - 1 do
          if List.mem l supports.(k) then begin
            let c = var_p k l in
            Qmat.set matrix r c (Rational.add (Qmat.get matrix r c) (Game.weight g k))
          end
        done;
        Qmat.set matrix r (var_lambda i) (Rational.neg (Game.capacity g i l));
        rhs.(r) <- Rational.neg (Game.weight g i);
        incr row)
      supports.(i)
  done;
  (* Normalisation: Σ_{l ∈ S_i} p^l_i = 1. *)
  for i = 0 to n - 1 do
    let r = !row in
    List.iter (fun l -> Qmat.set matrix r (var_p i l) Rational.one) supports.(i);
    rhs.(r) <- Rational.one;
    incr row
  done;
  match Qmat.solve matrix rhs with
  | None -> Degenerate
  | Some x ->
    let profile =
      Array.init n (fun i ->
          Array.init m (fun l -> if List.mem l supports.(i) then x.(var_p i l) else Rational.zero))
    in
    let positive =
      List.for_all
        (fun i -> List.for_all (fun l -> Rational.sign profile.(i).(l) > 0) supports.(i))
        (List.init n Fun.id)
    in
    if positive && Mixed.is_nash g profile then
      Equilibrium
        {
          profile;
          supports = Array.map (fun s -> s) supports;
          latencies = Array.init n (fun i -> x.(var_lambda i));
        }
    else Rejected

let solve_support g supports =
  match classify g supports with Equilibrium f -> Some f | Rejected | Degenerate -> None

let budget = 200_000

let all_nash g =
  let n = Game.users g and m = Game.links g in
  (* Each user's support is one of the [2^m - 1] non-empty link masks;
     odometer digit [d] stands for mask [d + 1]. *)
  let masks = (1 lsl m) - 1 in
  ignore
    (Combinat.search_space ~who:"Support_enum.all_nash" ~what:"support profiles" ~budget masks
       n);
  let equilibria = ref [] and degenerate = ref 0 in
  Combinat.iter_odometer ~digits:n ~base:masks (fun d ->
      match classify g (Array.map (fun k -> links_of_mask m (k + 1)) d) with
      | Equilibrium f -> equilibria := f :: !equilibria
      | Degenerate -> incr degenerate
      | Rejected -> ());
  { equilibria = List.rev !equilibria; degenerate_supports = !degenerate }
