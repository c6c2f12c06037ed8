let effective_domains requested =
  match Sys.getenv_opt "ENGINE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d > 0 -> d
      | _ -> requested)
  | None -> requested

let map_tasks ~domains ~seed ?(offset = 0) ~tasks f =
  if tasks < 0 then invalid_arg "Engine.map_tasks: tasks must be non-negative";
  let domains = effective_domains domains in
  Parallel.map_array ~domains
    (fun i -> f (Prng.Rng.of_path seed [ 0; offset + i ]) i)
    (Array.init tasks Fun.id)

let sweep ~domains ~seed ~cells ~trials ~task ~reduce =
  if trials < 0 then invalid_arg "Engine.sweep: trials must be non-negative";
  let cells_arr = Array.of_list cells in
  let k = Array.length cells_arr in
  let domains = effective_domains domains in
  (* One flat pool over the whole grid: cell boundaries do not align
     with domain boundaries, so slow cells share their load. *)
  let flat =
    Parallel.map_array ~domains
      (fun g ->
        let cell = g / trials and trial = g mod trials in
        task cells_arr.(cell) (Prng.Rng.of_path seed [ cell; trial ]) trial)
      (Array.init (k * trials) Fun.id)
  in
  List.mapi (fun c cell -> reduce cell (Array.sub flat (c * trials) trials)) cells
