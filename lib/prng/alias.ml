type t = { prob : float array; alias : int array }

let of_rationals qs =
  let ws = Array.map Numeric.Rational.to_float qs in
  let k = Array.length ws in
  if k = 0 then invalid_arg "Alias.of_rationals: empty distribution";
  Array.iter
    (fun w -> if w < 0.0 || Float.is_nan w then invalid_arg "Alias.of_rationals: negative weight")
    ws;
  let total = Array.fold_left ( +. ) 0.0 ws in
  if total <= 0.0 then invalid_arg "Alias.of_rationals: all weights are zero";
  (* Scale to mean 1 and split into under- and over-full buckets. *)
  let scaled = Array.map (fun w -> w *. float_of_int k /. total) ws in
  let prob = Array.make k 1.0 and alias = Array.init k (fun i -> i) in
  let small = ref [] and large = ref [] in
  Array.iteri (fun i p -> if p < 1.0 then small := i :: !small else large := i :: !large) scaled;
  let rec pair () =
    match !small, !large with
    | s :: srest, l :: lrest ->
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
      small := srest;
      large := lrest;
      if scaled.(l) < 1.0 then small := l :: !small else large := l :: !large;
      pair ()
    | _ -> ()
  in
  pair ();
  { prob; alias }

let sample t rng =
  let i = Rng.int rng (Array.length t.prob) in
  if Rng.float rng < t.prob.(i) then i else t.alias.(i)
