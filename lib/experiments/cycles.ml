type row = {
  n : int;
  m : int;
  beliefs : string;
  trials : int;
  best_response_cycles : int;
  better_response_cycles : int;
  shortest_witness : int option;
  all_have_pure_ne : bool;
}

(* Per-trial outcome; folded into a row in trial order by [reduce]. *)
type outcome = { best : bool; better_len : int option; has_pure : bool }

let run ~seed ~ns ~ms ~trials ~weights ~beliefs () =
  let cells = List.concat_map (fun n -> List.map (fun m -> (n, m)) ms) ns in
  Engine.sweep ~seed ~cells ~trials
    ~task:(fun (n, m) rng _trial ->
      let g = Generators.game rng ~n ~m ~weights ~beliefs in
      (* Both graph searches and the existence scan run on incremental
         views underneath (O(1) load deltas per edge/profile), which is
         what makes exhausting m^n states per trial affordable here. *)
      let best =
        Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Best_response <> None
      in
      let better_len =
        match Algo.Game_graph.find_cycle g ~kind:Algo.Game_graph.Better_response with
        | Some c -> Some (List.length c)
        | None -> None
      in
      { best; better_len; has_pure = Algo.Enumerate.exists g })
    ~reduce:(fun (n, m) outcomes ->
      let best = ref 0 and better = ref 0 in
      let shortest = ref None in
      let all_pure = ref true in
      Array.iter
        (fun o ->
          if o.best then incr best;
          (match o.better_len with
           | Some len ->
             incr better;
             (match !shortest with
              | Some s when s <= len -> ()
              | _ -> shortest := Some len)
           | None -> ());
          if not o.has_pure then all_pure := false)
        outcomes;
      {
        n;
        m;
        beliefs = Generators.belief_family_name beliefs;
        trials;
        best_response_cycles = !best;
        better_response_cycles = !better;
        shortest_witness = !shortest;
        all_have_pure_ne = !all_pure;
      })

let table rows =
  let t =
    Stats.Table.create
      [ "n"; "m"; "beliefs"; "trials"; "BR cycles"; "better-resp cycles"; "shortest"; "pure NE always" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          string_of_int r.n;
          string_of_int r.m;
          r.beliefs;
          string_of_int r.trials;
          string_of_int r.best_response_cycles;
          string_of_int r.better_response_cycles;
          (match r.shortest_witness with None -> "-" | Some s -> string_of_int s);
          string_of_bool r.all_have_pure_ne;
        ])
    rows;
  t
