open Util

(* The candidates linked by a shared support group, by union-find over
   [group_covers]: each component's candidates ascending, the components in
   the order of their least candidate. *)
let components (p : Problem.t) =
  let m = Problem.num_candidates p in
  let parent = Array.init m Fun.id in
  let rec find c =
    if parent.(c) = c then c
    else begin
      let root = find parent.(c) in
      parent.(c) <- root;
      root
    end
  in
  (* first.(g) = the first candidate seen covering group g *)
  let first = Array.make (Problem.num_groups p) (-1) in
  Array.iteri
    (fun c covers ->
      Array.iter
        (fun (g, _) ->
          if first.(g) < 0 then first.(g) <- c
          else
            let a = find first.(g) and b = find c in
            (* the root stays the least candidate of its component *)
            if a <> b then parent.(max a b) <- min a b)
        covers)
    p.Problem.group_covers;
  let members = Array.make m [] in
  for c = m - 1 downto 0 do
    let r = find c in
    members.(r) <- c :: members.(r)
  done;
  Array.to_list members
  |> List.filter_map (function [] -> None | cs -> Some (Array.of_list cs))

(* Branch and bound over one component's candidates, every other candidate
   held out, from greedy's part of the component as the incumbent. Returns
   the component's first optimum in include-first order, and whether
   greedy's part is optimal too. To reach the first optimum when greedy's
   part ties it, a leaf (or bound) equal to greedy's value counts as an
   improvement until the first leaf is taken. *)
let search (p : Problem.t) ~greedy cs =
  let m = Problem.num_candidates p in
  let part = Array.make m false in
  Array.iter (fun c -> part.(c) <- greedy.(c)) cs;
  let greedy_val = Objective.value p part in
  let best_sel = ref part and best_val = ref greedy_val and taken = ref false in
  let improves v = Frac.(v < !best_val) || ((not !taken) && Frac.(v <= !best_val)) in
  let sel = Array.make m false in
  (* excluded.(c) = candidate held out or decided out on the current path *)
  let excluded = Array.make m true in
  Array.iter (fun c -> excluded.(c) <- false) cs;
  (* Optimistic coverage of each support group given the exclusions: max
     over the candidates not excluded, i.e. the lower bound of the problem
     without them. *)
  let optimistic_unexplained () =
    Objective.unexplained p (Objective.group_coverage p (Array.map not excluded))
  in
  let rec branch i cost =
    if i >= Array.length cs then begin
      let v = Objective.value p sel in
      if improves v then begin
        taken := true;
        best_val := v;
        best_sel := Array.copy sel
      end
    end
    else if improves (Frac.add cost (optimistic_unexplained ())) then begin
      let c = cs.(i) in
      (* include candidate c *)
      sel.(c) <- true;
      branch (i + 1) (Frac.add cost p.Problem.cand_cost.(c));
      sel.(c) <- false;
      (* exclude candidate c *)
      excluded.(c) <- true;
      branch (i + 1) cost;
      excluded.(c) <- false
    end
  in
  branch 0 Frac.zero;
  (!best_sel, Frac.equal !best_val greedy_val)

(* F splits over the components, so the global search's answer is read off
   theirs: greedy's selection when it is optimal in every component, and
   otherwise the union of the components' first optima, which is the first
   global optimum in include-first candidate order. *)
let solve ?(max_candidates = 25) (p : Problem.t) =
  let comps = components p in
  let largest = List.fold_left (fun n cs -> max n (Array.length cs)) 0 comps in
  if largest > max_candidates then
    Solver_error.raise_ ~solver:"exact"
      "a component of %d candidates exceeds the branch-and-bound limit of %d"
      largest max_candidates;
  let greedy = Greedy.solve p in
  let optima = List.map (search p ~greedy) comps in
  if List.for_all snd optima then greedy
  else begin
    let sel = Array.make (Problem.num_candidates p) false in
    List.iter2
      (fun cs (part, _) -> Array.iter (fun c -> sel.(c) <- part.(c)) cs)
      comps optima;
    sel
  end
