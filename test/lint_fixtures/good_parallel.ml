(* Fixture: clean parallel closures the D1 rule must NOT flag —
   worker-local mutable state, read-only captures, shadowed names.
   Parsed, never compiled. *)
let local_table xs =
  Parallel.map_array
    (fun x ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.replace tbl x x;
      Hashtbl.length tbl)
    xs

let read_only_array xs =
  let weights = Array.make 8 1 in
  Parallel.map_array (fun x -> weights.(x)) xs

let fresh_view g xs =
  Parallel.map_array
    (fun p ->
      let v = View.of_profile g p in
      View.is_nash v)
    xs

let shadowed xs =
  let acc = ref 0 in
  ignore !acc;
  Parallel.map_array
    (fun x ->
      let acc = ref x in
      incr acc;
      !acc)
    xs

let local_fork () =
  Parallel.fork_join ~workers:2 (fun w ->
      let acc = ref w in
      incr acc;
      !acc)
