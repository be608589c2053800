open Util

(* Branch and bound over every candidate of one component's sub-problem,
   from greedy's part of the component as the incumbent. Returns the first
   optimum in include-first order, and whether greedy's part is optimal
   too. To reach the first optimum when greedy's part ties it, a leaf (or
   bound) equal to greedy's value counts as an improvement until the first
   leaf is taken. *)
let search (p : Problem.t) part =
  let m = Problem.num_candidates p in
  let greedy_val = Objective.value p part in
  let best_sel = ref part and best_val = ref greedy_val and taken = ref false in
  let improves v = Frac.(v < !best_val) || ((not !taken) && Frac.(v <= !best_val)) in
  let sel = Array.make m false in
  (* available.(c) = candidate not decided out on the current path *)
  let available = Array.make m true in
  let rec branch c cost =
    if c >= m then begin
      let v = Objective.value p sel in
      if improves v then begin
        taken := true;
        best_val := v;
        best_sel := Array.copy sel
      end
    end
    (* the bound: every group at its best coverage over the available ones *)
    else if
      improves
        (Frac.add cost (Objective.unexplained p (Objective.group_coverage p available)))
    then begin
      sel.(c) <- true;
      branch (c + 1) (Frac.add cost p.Problem.cand_cost.(c));
      sel.(c) <- false;
      available.(c) <- false;
      branch (c + 1) cost;
      available.(c) <- true
    end
  in
  branch 0 Frac.zero;
  (!best_sel, Frac.equal !best_val greedy_val)

(* F splits over the components, so the global search's answer is read off
   theirs: greedy's selection when it is optimal in every component, and
   otherwise the union of the components' first optima, which is the first
   global optimum in include-first candidate order. A sub-problem's values
   and bounds differ from the whole problem's, every other candidate held
   out, by one constant, so its search takes the same decisions. *)
let solve ?(max_candidates = 25) (p : Problem.t) =
  let comps = Problem.components p in
  let largest = Array.fold_left (fun n cs -> max n (Array.length cs)) 0 comps in
  if largest > max_candidates then
    Solver_error.raise_ ~solver:"exact"
      "a component of %d candidates exceeds the branch-and-bound limit of %d"
      largest max_candidates;
  let greedy = Greedy.solve p in
  let optima =
    Array.map
      (fun cs -> search (Problem.restrict p cs) (Array.map (Array.get greedy) cs))
      comps
  in
  if Array.for_all snd optima then greedy
  else begin
    let sel = Array.make (Problem.num_candidates p) false in
    Array.iter2
      (fun cs (part, _) -> Array.iteri (fun k c -> sel.(c) <- part.(k)) cs)
      comps optima;
    sel
  end
