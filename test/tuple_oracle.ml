(* The selection objective and the solvers as they stood before the problem
   was lifted onto support groups: every evaluation walks the target tuples
   through [Core.Problem.covers]. Kept only as the oracle of the [lifted]
   properties in [test_incremental], which check the lifted evaluators and
   solvers against these, value for value and selection for selection.
   [exact] is also the reference global search: one branch and bound over
   all candidates, uncapped, which [Exact.solve]'s per-component search
   must match bit for bit. *)

open Util
open Core

let w1 (p : Problem.t) = Frac.of_int p.Problem.weights.Problem.w_unexplained

(* per tuple: the best degree the selection explains it to *)
let best_coverage (p : Problem.t) sel =
  let best = Array.make (Problem.num_tuples p) Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then
        Array.iter
          (fun (ti, d) -> if Frac.(best.(ti) < d) then best.(ti) <- d)
          p.Problem.covers.(c))
    sel;
  best

let unexplained p best =
  let covered = Array.fold_left Frac.add Frac.zero best in
  Frac.mul (w1 p) (Frac.sub (Frac.of_int (Problem.num_tuples p)) covered)

let breakdown (p : Problem.t) sel =
  let unexplained = unexplained p (best_coverage p sel) in
  let errors = ref 0 and size = ref 0 and cost = ref Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then begin
        errors := !errors + Cover.error_count p.Problem.stats.(c);
        size := !size + p.Problem.stats.(c).Cover.size;
        cost := Frac.add !cost p.Problem.cand_cost.(c)
      end)
    sel;
  {
    Objective.unexplained;
    errors = !errors;
    size = !size;
    total = Frac.add unexplained !cost;
  }

let value p sel = (breakdown p sel).Objective.total

let lower_bound p =
  unexplained p (best_coverage p (Array.make (Problem.num_candidates p) true))

let marginal_gain (p : Problem.t) ~best c =
  let gain =
    Array.fold_left
      (fun acc (ti, d) ->
        if Frac.(best.(ti) < d) then Frac.add acc (Frac.sub d best.(ti)) else acc)
      Frac.zero p.Problem.covers.(c)
  in
  Frac.sub (Frac.mul (w1 p) gain) p.Problem.cand_cost.(c)

(* The per-tuple incremental state: per tuple, the multiset of degrees the
   selected candidates cover it at. *)
module Fmap = Map.Make (struct
  type t = Frac.t

  let compare = Frac.compare
end)

type state = {
  problem : Problem.t;
  sel : bool array;
  degrees : int Fmap.t array;
  best : Frac.t array;
  mutable covered : Frac.t;
  mutable cost : Frac.t;
}

let add_degree st ti d =
  let m = st.degrees.(ti) in
  let n = Option.value ~default:0 (Fmap.find_opt d m) in
  st.degrees.(ti) <- Fmap.add d (n + 1) m;
  if Frac.(st.best.(ti) < d) then begin
    st.covered <- Frac.add st.covered (Frac.sub d st.best.(ti));
    st.best.(ti) <- d
  end

let remove_degree st ti d =
  let m = st.degrees.(ti) in
  let n = Fmap.find d m in
  let m' = if n = 1 then Fmap.remove d m else Fmap.add d (n - 1) m in
  st.degrees.(ti) <- m';
  if n = 1 && Frac.equal d st.best.(ti) then begin
    let next = match Fmap.max_binding_opt m' with Some (d', _) -> d' | None -> Frac.zero in
    st.covered <- Frac.sub st.covered (Frac.sub st.best.(ti) next);
    st.best.(ti) <- next
  end

let flip st c =
  let p = st.problem in
  let selecting = not st.sel.(c) in
  st.sel.(c) <- selecting;
  Array.iter
    (fun (ti, d) -> if selecting then add_degree st ti d else remove_degree st ti d)
    p.Problem.covers.(c);
  st.cost <-
    (if selecting then Frac.add else Frac.sub) st.cost p.Problem.cand_cost.(c)

let create (p : Problem.t) sel =
  let n = Problem.num_tuples p in
  let st =
    {
      problem = p;
      sel = Array.make (Problem.num_candidates p) false;
      degrees = Array.make n Fmap.empty;
      best = Array.make n Frac.zero;
      covered = Frac.zero;
      cost = Frac.zero;
    }
  in
  Array.iteri (fun c selected -> if selected then flip st c) sel;
  st

let state_value st =
  let p = st.problem in
  Frac.add
    (Frac.mul (w1 p) (Frac.sub (Frac.of_int (Problem.num_tuples p)) st.covered))
    st.cost

let flip_delta st c =
  let p = st.problem in
  if st.sel.(c) then
    let lost =
      Array.fold_left
        (fun acc (ti, d) ->
          if Frac.(d < st.best.(ti)) then acc
          else if Fmap.find d st.degrees.(ti) > 1 then acc
          else
            let next =
              match Fmap.find_last_opt (fun d' -> Frac.compare d' d < 0) st.degrees.(ti) with
              | Some (d', _) -> d'
              | None -> Frac.zero
            in
            Frac.add acc (Frac.sub d next))
        Frac.zero p.Problem.covers.(c)
    in
    Frac.sub (Frac.mul (w1 p) lost) p.Problem.cand_cost.(c)
  else
    let gained =
      Array.fold_left
        (fun acc (ti, d) ->
          if Frac.(st.best.(ti) < d) then Frac.add acc (Frac.sub d st.best.(ti)) else acc)
        Frac.zero p.Problem.covers.(c)
    in
    Frac.sub p.Problem.cand_cost.(c) (Frac.mul (w1 p) gained)

(* [Greedy.solve]: forward passes adding the best strict gain (first
   candidate on ties), then backward passes dropping any improving one *)
let greedy p =
  let m = Problem.num_candidates p in
  let st = create p (Array.make m false) in
  let continue_ = ref true in
  while !continue_ do
    let pick = ref None in
    for c = 0 to m - 1 do
      if not st.sel.(c) then begin
        let gain = Frac.neg (flip_delta st c) in
        if Frac.(Frac.zero < gain) then
          match !pick with
          | Some (_, g) when Frac.(gain <= g) -> ()
          | Some _ | None -> pick := Some (c, gain)
      end
    done;
    match !pick with None -> continue_ := false | Some (c, _) -> flip st c
  done;
  let improved = ref true in
  while !improved do
    improved := false;
    for c = 0 to m - 1 do
      if st.sel.(c) && Frac.(flip_delta st c < Frac.zero) then begin
        flip st c;
        improved := true
      end
    done
  done;
  Array.copy st.sel

(* [Local_search.improve]: commit the strictly best flip until none
   improves *)
let improve p start =
  let st = create p start in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_flip = ref None in
    for c = 0 to Problem.num_candidates p - 1 do
      let delta = flip_delta st c in
      if Frac.(delta < Frac.zero) then
        match !best_flip with
        | Some (_, bd) when Frac.(bd <= delta) -> ()
        | Some _ | None -> best_flip := Some (c, delta)
    done;
    match !best_flip with
    | None -> ()
    | Some (c, _) ->
      flip st c;
      improved := true
  done;
  Array.copy st.sel

(* The global search: branch and bound over all candidates at once, in
   candidate order from the greedy incumbent, bounded by the per-tuple best
   coverage of the candidates not excluded, with no cap *)
let exact p =
  let m = Problem.num_candidates p in
  let best_sel = ref (greedy p) in
  let best_val = ref (value p !best_sel) in
  let sel = Array.make m false in
  let excluded = Array.make m false in
  let rec branch i cost =
    if i >= m then begin
      let v = value p sel in
      if Frac.(v < !best_val) then begin
        best_val := v;
        best_sel := Array.copy sel
      end
    end
    else begin
      let bound = Frac.add cost (unexplained p (best_coverage p (Array.map not excluded))) in
      if Frac.(bound < !best_val) then begin
        sel.(i) <- true;
        branch (i + 1) (Frac.add cost p.Problem.cand_cost.(i));
        sel.(i) <- false;
        excluded.(i) <- true;
        branch (i + 1) cost;
        excluded.(i) <- false
      end
    end
  in
  branch 0 Frac.zero;
  !best_sel
