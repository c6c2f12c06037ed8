open Model

type outcome = {
  moves : int;
  users_moved : int;
  seeded_classes : int;
  seeded_links : int;
  frontier_links : int;
  fallback : bool;
  nash : bool;
}

(* First defecting candidate, visiting occupied (class, link) pairs in
   Cbr's first-defector order.  A clean pair — clean class on an
   untouched link — kept its latency, so from an equilibrium start any
   new improving move leads into a touched link: only those comparisons
   are made.  Dirty or touched pairs get the full defector check.  One
   O(m) pass per class decides all of its pairs.  [restricted] is
   [Some touched], built once per batch. *)
let find_candidate v restricted dirty =
  let k = Cview.classes v and cls = ref 0 and found = ref None in
  while Option.is_none !found && !cls < k do
    let only = if dirty.(!cls) then None else restricted in
    match Cview.first_defecting_source ?only v ~cls:!cls with
    | Some src -> found := Some (!cls, src)
    | None -> incr cls
  done;
  !found

let repair ~max_steps ~certified v batch =
  let k = Cview.classes v and m = Cview.links v in
  List.iter (Mutation.apply v) batch;
  let touched = Array.make m false and dirty = Array.make k false in
  let restricted = Some touched in
  let touched_count = ref 0 in
  let touch l =
    if not touched.(l) then begin
      touched.(l) <- true;
      incr touched_count
    end
  in
  (* Seed after applying: occupancy only shrinks through departures,
     which touch their own link, so each reweight's load changes are
     covered by the class's post-batch occupancy plus the per-mutation
     links.  Capacity revisions leave every load in place — only the
     revised class can see them. *)
  List.iter
    (fun mu ->
      match mu with
      | Mutation.Arrive { cls; link; _ } | Mutation.Depart { cls; link; _ } ->
        dirty.(cls) <- true;
        touch link
      | Mutation.Reweight { cls; _ } ->
        dirty.(cls) <- true;
        for l = 0 to m - 1 do
          if Cview.assigned v cls l > 0 then touch l
        done
      | Mutation.Revise_capacity { cls; _ } -> dirty.(cls) <- true)
    batch;
  let seeded_classes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 dirty in
  let seeded_links = !touched_count in
  let moves = ref 0 and users_moved = ref 0 in
  let out_of_budget () = invalid_arg "Repair.repair_batch: did not converge within max_steps" in
  (* Once the frontier saturates (every link touched) the restricted
     scan IS the full first-defector scan, i.e. exactly Cbr's dynamics
     running in place on the warm profile — no rebuild.  The budget is
     checked only when a move is due, as in Cbr. *)
  let rec epochs () =
    match find_candidate v restricted dirty with
    | None -> ()
    | Some _ when !moves >= max_steps -> out_of_budget ()
    | Some (cls, src) ->
      let dst = Cview.best_link v ~cls ~src in
      let count = Cview.max_improving_block v ~cls ~src ~dst in
      Cview.move v ~cls ~src ~dst ~count;
      touch src;
      touch dst;
      dirty.(cls) <- true;
      incr moves;
      users_moved := !users_moved + count;
      epochs ()
  in
  epochs ();
  (* A clean scan proves Nash from a certified start, so the cursor is
     re-certified without a scan.  From any other start the exact scan
     decides, and Cbr's loop finishes the job on this cursor with what
     is left of the budget. *)
  let fallback = (not certified) && not (Cview.is_nash v) in
  if certified then Cview.certify v;
  if fallback then begin
    let steps, users, converged =
      Algo.Cbr.converge_in_place ~max_steps:(max_steps - !moves) v
    in
    moves := !moves + steps;
    users_moved := !users_moved + users;
    if not converged then out_of_budget ();
    if not (Cview.is_nash v) then
      invalid_arg "Repair.repair_batch: repaired profile is not a Nash equilibrium"
  end;
  {
    moves = !moves;
    users_moved = !users_moved;
    seeded_classes;
    seeded_links;
    frontier_links = !touched_count;
    fallback;
    nash = true;
  }

(* Every mutation and move goes through the view's undo history, so a
   failure anywhere in the batch unwinds to the entry depth and the
   view is exactly as it was before the batch — certificate included,
   since the restored state is the one that was certified. *)
let repair_batch ?(max_steps = 1_000_000) v batch =
  if max_steps <= 0 then invalid_arg "Repair.repair_batch: max_steps must be positive";
  let base = Cview.depth v and certified = Cview.certified v in
  try repair ~max_steps ~certified v batch
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    while Cview.depth v > base do
      Cview.undo v
    done;
    if certified then Cview.certify v;
    Printexc.raise_with_backtrace e bt
