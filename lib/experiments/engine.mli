(** The experiment task grid.

    An experiment is a grid of independent tasks; each task receives
    its own PRNG derived from [(seed, cell index, trial)] via
    {!Prng.Rng.of_path}, so the stream a task draws from depends only on
    the task's identity, never on what ran before it.  Tasks run
    serially in cell order, then trial order, and each cell's results
    are folded in trial order. *)

(** [sweep ~seed ~cells ~trials ~task ~reduce] runs a cells-by-trials
    experiment grid: for every cell [c] (index [ci] in [cells]) and
    trial [t] in [0, trials), [task c rng t] runs with
    [rng = Rng.of_path seed [ci; t]]; then [reduce c results] folds each
    cell's [trials]-length result array (in trial order) into a row.
    Rows come back in cell order.
    @raise Invalid_argument when [trials < 0]. *)
val sweep :
  seed:int ->
  cells:'c list ->
  trials:int ->
  task:('c -> Prng.Rng.t -> int -> 'a) ->
  reduce:('c -> 'a array -> 'r) ->
  'r list
