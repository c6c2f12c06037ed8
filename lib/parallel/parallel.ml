module Ownership = Ownership

let available_domains () = Domain.recommended_domain_count ()

(* Run [work w] for w in [0, workers) on separate domains and collect
   the results in worker order, re-raising the first failure. *)
let fork_join ~workers work =
  if workers <= 0 then invalid_arg "Parallel.fork_join: workers must be positive";
  if workers = 1 then [| work 0 |]
  else begin
    let spawned = Array.init (workers - 1) (fun w -> Domain.spawn (fun () -> work (w + 1))) in
    (* Join every domain before re-raising, so no worker leaks when one
       fails; the first failure in worker order wins.  The backtrace is
       captured at catch time and restored on re-raise, so a worker
       failure reports the worker's stack, not this join loop. *)
    let capture f = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
    let first = capture (fun () -> work 0) in
    let rest = Array.map (fun d -> capture (fun () -> Domain.join d)) spawned in
    Array.map
      (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
      (Array.append [| first |] rest)
  end

let map_array ~domains f xs =
  if domains <= 0 then invalid_arg "Parallel: domains must be positive";
  let len = Array.length xs in
  if len = 0 then [||]
  else begin
    let workers = min domains len in
    if workers = 1 then Array.map f xs
    else begin
      (* Interleaved: worker w takes indices w, w+workers, …  Each
         worker returns (index, value) pairs; we scatter them back. *)
      let work w =
        let rec go i acc = if i >= len then acc else go (i + workers) ((i, f xs.(i)) :: acc) in
        go w []
      in
      let chunks = fork_join ~workers work in
      let out = Array.make len None in
      Array.iter (List.iter (fun (i, v) -> out.(i) <- Some v)) chunks;
      Array.map (function Some v -> v | None -> assert false) out
    end
  end
