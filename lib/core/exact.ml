open Util

let solve ?(max_candidates = 25) (p : Problem.t) =
  let m = Problem.num_candidates p in
  if m > max_candidates then
    Solver_error.raise_ ~solver:"exact"
      "%d candidates exceed the branch-and-bound limit of %d" m max_candidates;
  (* Incumbent from greedy. *)
  let best_sel = ref (Greedy.solve p) in
  let best_val = ref (Objective.value p !best_sel) in
  let sel = Array.make m false in
  (* excluded.(c) = candidate decided out on the current path *)
  let excluded = Array.make m false in
  (* Optimistic coverage of each support group given the exclusions: max
     over the candidates not excluded, i.e. the lower bound of the problem
     without them. Recomputed per node only over the affected groups would
     be fancier; at ≤25 candidates a full pass is cheap. *)
  let optimistic_unexplained () =
    Objective.unexplained p (Objective.group_coverage p (Array.map not excluded))
  in
  let rec branch i cost =
    if i >= m then begin
      let v = Objective.value p sel in
      if Frac.(v < !best_val) then begin
        best_val := v;
        best_sel := Array.copy sel
      end
    end
    else begin
      let bound = Frac.add cost (optimistic_unexplained ()) in
      if Frac.(bound < !best_val) then begin
        (* include candidate i *)
        sel.(i) <- true;
        branch (i + 1) (Frac.add cost p.Problem.cand_cost.(i));
        sel.(i) <- false;
        (* exclude candidate i *)
        excluded.(i) <- true;
        branch (i + 1) cost;
        excluded.(i) <- false
      end
    end
  in
  branch 0 Frac.zero;
  !best_sel
