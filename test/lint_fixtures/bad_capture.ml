(* Fixture: D1 violations — closures shipped to worker domains that
   capture or mutate outside mutable state.  Parsed, never compiled. *)
let view_capture g p xs =
  let v = View.of_profile g p in
  Parallel.map_array (fun x -> View.move v x 0) xs

let table_capture xs =
  let tbl = Hashtbl.create 16 in
  Parallel.map_array (fun x -> Hashtbl.replace tbl x x) xs

let named_closure xs =
  let acc = ref 0 in
  let work x = acc := !acc + x in
  Parallel.map_array work xs

let sweep_capture g cells =
  let out = Array.make 8 0 in
  Engine.sweep g ~task:(fun rng i -> out.(i) <- i + Rng.int rng 2) cells
