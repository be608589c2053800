open Util

type runner = {
  r_name : string;
  r_solve : ?pool:Parallel.Pool.t -> ?seed:int -> Problem.t -> bool array;
  r_exact : bool;
}

type race_result = {
  selection : bool array;
  winner : string;
  proved : bool;
}

(* Monotone minimum over prover indices; the threshold only ever falls. *)
let rec note_prover a i =
  let cur = Atomic.get a in
  if i < cur && not (Atomic.compare_and_set a cur i) then note_prover a i

let race ~roster ?pool ?seed p =
  if roster = [] then invalid_arg "Portfolio.race: empty roster";
  let roster = Array.of_list roster in
  let bound = Objective.lower_bound p in
  (* Lowest roster index of a finisher whose result is provably optimal.
     Entries past it skip before starting — the cooperative cancellation.
     A skipped entry always has a larger index than some prover, so it can
     never be the winner: the raced result is a pure function of
     (problem, seed) for any pool size, including none. *)
  let prover = Atomic.make max_int in
  let attempt i =
    if Atomic.get prover < i then None
    else
      let entry = roster.(i) in
      match entry.r_solve ?pool ?seed p with
      | exception Solver_error.Error _ -> None
      | selection ->
        let objective = Objective.value p selection in
        let proved = entry.r_exact || Frac.compare objective bound <= 0 in
        if proved then note_prover prover i;
        Some (selection, objective, proved)
  in
  let indices = Array.init (Array.length roster) Fun.id in
  let results =
    match pool with
    | Some pool -> Parallel.Pool.parallel_map ~chunk:1 pool attempt indices
    | None -> Array.map attempt indices
  in
  (* Least-index prover wins; otherwise the best objective, lowest index
     breaking ties (Array.iteri keeps the first minimum it sees). *)
  let winner = ref None in
  Array.iteri
    (fun i -> function
      | Some (_, _, true) when !winner = None -> winner := Some i
      | _ -> ())
    results;
  let winner =
    match !winner with
    | Some i -> Some (i, true)
    | None ->
      let best = ref None in
      Array.iteri
        (fun i -> function
          | Some (_, obj, _) -> (
            match !best with
            | Some (_, b) when Frac.compare b obj <= 0 -> ()
            | _ -> best := Some (i, obj))
          | None -> ())
        results;
      Option.map (fun (i, _) -> (i, false)) !best
  in
  match winner with
  | None ->
    Solver_error.raise_ ~solver:"portfolio" "every roster solver refused"
  | Some (i, proved) ->
    let selection, _, _ = Option.get results.(i) in
    { selection; winner = roster.(i).r_name; proved }
