(** Deterministic sharded experiment engine.

    An experiment is expressed as independent tasks; each task receives
    its own PRNG derived from [(seed, task index)] via
    {!Prng.Rng.of_path}, so the stream a task draws from depends only on
    the task's identity — never on which domain runs it or how many
    domains there are.  Results come back in task order and are merged
    with a serial left fold, so every merge happens in the same order
    for any domain count.  Consequence: engine output is bit-identical
    for any [~domains], including [1].

    The environment variable [ENGINE_DOMAINS] (a positive integer)
    overrides every [~domains] argument — CI uses it to force the
    sharded code paths under [dune runtest]. *)

(** [effective_domains requested] is the [ENGINE_DOMAINS] override when
    set to a positive integer, else [requested]. *)
val effective_domains : int -> int

(** [map_tasks ~domains ~seed ?offset ~tasks f] runs [f rng i] for
    [i] in [0, tasks), where [rng] is [Rng.of_path seed [0; offset + i]]
    ([offset] defaults to [0]), sharded over [domains]; results are in
    task order. *)
val map_tasks :
  domains:int ->
  seed:int ->
  ?offset:int ->
  tasks:int ->
  (Prng.Rng.t -> int -> 'a) ->
  'a array

(** [sweep ~domains ~seed ~cells ~trials ~task ~reduce] runs a
    cells-by-trials experiment grid: for every cell [c] (index [ci] in
    [cells]) and trial [t] in [0, trials), [task c rng t] runs with
    [rng = Rng.of_path seed [ci; t]]; then [reduce c results] folds each
    cell's [trials]-length result array (in trial order) into a row.
    The full [cells × trials] grid is flattened into one task pool so
    load balances across uneven cells.  Rows come back in cell order. *)
val sweep :
  domains:int ->
  seed:int ->
  cells:'c list ->
  trials:int ->
  task:('c -> Prng.Rng.t -> int -> 'a) ->
  reduce:('c -> 'a array -> 'r) ->
  'r list
