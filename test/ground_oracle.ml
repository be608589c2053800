(* CMD's ground model as it stood before the lifting of [Core.Cmd]: one
   explained-atom, one loss of weight [w1] and one support constraint per
   coverable tuple, the atoms numbered from [m] in tuple order. Tuples no
   candidate covers get none: they were removed before grounding, as the
   lifted view's constant is now. Kept only as the oracle of [test_core]'s
   lifting properties, which compare the two models' energies. *)

open Util

let build_model ?(squared = false) (p : Core.Problem.t) =
  let soft weight expr =
    if squared then Psl.Hlmrf.Hinge { weight; expr }
    else Psl.Hlmrf.Linear { weight; expr }
  in
  let m = Core.Problem.num_candidates p in
  let support = Array.make (Core.Problem.num_tuples p) [] in
  Array.iteri
    (fun c cover_list ->
      Array.iter
        (fun (ti, d) -> support.(ti) <- (c, Frac.to_float d) :: support.(ti))
        cover_list)
    p.Core.Problem.covers;
  let support = List.filter (fun sup -> sup <> []) (Array.to_list support) in
  let model = Psl.Hlmrf.create ~num_vars:(m + List.length support) in
  let w1 = float_of_int p.Core.Problem.weights.Core.Problem.w_unexplained in
  Array.iteri
    (fun c cost ->
      let cost = Frac.to_float cost in
      if cost > 0. then
        Psl.Hlmrf.add_potential model
          (soft cost (Psl.Linexpr.make [ (c, 1.) ] 0.)))
    p.Core.Problem.cand_cost;
  List.iteri
    (fun ti sup ->
      let y = m + ti in
      Psl.Hlmrf.add_potential model
        (soft w1 (Psl.Linexpr.make [ (y, -1.) ] 1.));
      Psl.Hlmrf.add_constraint model
        (Psl.Hlmrf.Leq
           (Psl.Linexpr.make
              ((y, 1.) :: List.map (fun (c, d) -> (c, -.d)) sup)
              0.)))
    support;
  model

(* [x] over the candidates, extended by every explained-atom at the largest
   value its support constraint [y ≤ Σ d·x] and the box allow:
   [y = min(1, Σ d·x)]. Reads the supports off [model]'s constraints, so it
   serves the per-tuple and the lifted model alike. *)
let extend model ~m x =
  let full = Array.make (Psl.Hlmrf.num_vars model) 0. in
  Array.blit x 0 full 0 m;
  List.iter
    (fun (Psl.Hlmrf.Leq e) ->
      let y, sum =
        List.fold_left
          (fun (y, sum) (v, a) -> if v >= m then (v, sum) else (y, sum -. (a *. x.(v))))
          (-1, 0.) e.Psl.Linexpr.coeffs
      in
      full.(y) <- Float.min 1. sum)
    (Psl.Hlmrf.constraints model);
  full
