let sweep ~seed ~cells ~trials ~task ~reduce =
  if trials < 0 then invalid_arg "Engine.sweep: trials must be non-negative";
  List.mapi
    (fun c cell ->
      reduce cell (Array.init trials (fun t -> task cell (Prng.Rng.of_path seed [ c; t ]) t)))
    cells
