open Util

type rounding =
  | Conditional
  | Threshold of float

type options = {
  admm : Psl.Admm.options;
  rounding : rounding;
  repair : bool;
  squared : bool;
}

let default_options =
  {
    admm = Psl.Admm.default_options;
    rounding = Conditional;
    repair = true;
    squared = false;
  }

type result = {
  selection : bool array;
  objective : Frac.t;
  fractional : float array;
  admm : Psl.Admm.outcome;
  num_vars : int;
  num_potentials : int;
  num_constraints : int;
}

let build_model ?(squared = false) (p : Problem.t) =
  (* Linear soft losses become squared hinges in the squared flavour; their
     expressions are non-negative over the box, so the hinge is exact. *)
  let soft weight expr =
    if squared then Psl.Hlmrf.Hinge { weight; expr }
    else Psl.Hlmrf.Linear { weight; expr }
  in
  let m = Problem.num_candidates p in
  (* per support group: its (candidate, degree) pairs, candidates descending *)
  let support = Array.make (Problem.num_groups p) [] in
  Array.iteri
    (fun c entries ->
      Array.iter (fun (g, d) -> support.(g) <- (c, d) :: support.(g)) entries)
    p.Problem.group_covers;
  let model = Psl.Hlmrf.create ~num_vars:(m + Array.length support) in
  let w1 = float_of_int p.Problem.weights.Problem.w_unexplained in
  (* per-candidate selection cost: w2·errors + w3·size, as ¬in(θ) priors *)
  Array.iteri
    (fun c cost ->
      let cost = Frac.to_float cost in
      if cost > 0. then
        Psl.Hlmrf.add_potential model
          (soft cost (Psl.Linexpr.make [ (c, 1.) ] 0.)))
    p.Problem.cand_cost;
  (* per group of k tuples: k copies of the "wants to be explained" loss as
     one, and the shared support constraint. k·w1 is formed in floats,
     where it cannot wrap; with both factors below 2^53 it is the float of
     the int product. *)
  Array.iteri
    (fun g sup ->
      let y = m + g in
      Psl.Hlmrf.add_potential model
        (soft
           (float_of_int p.Problem.group_size.(g) *. w1)
           (Psl.Linexpr.make [ (y, -1.) ] 1.));
      Psl.Hlmrf.add_constraint model
        (Psl.Hlmrf.Leq
           (Psl.Linexpr.make
              ((y, 1.) :: List.map (fun (c, d) -> (c, -.Frac.to_float d)) sup)
              0.)))
    support;
  model

let conditional_round (p : Problem.t) fractional =
  let m = Problem.num_candidates p in
  let order =
    List.init m Fun.id
    |> List.sort (fun a b -> Float.compare fractional.(b) fractional.(a))
  in
  let st = Incremental.create p (Array.make m false) in
  List.iter
    (fun c -> if Frac.(Incremental.flip_delta st c < Frac.zero) then Incremental.flip st c)
    order;
  Incremental.selection st

let threshold_round (p : Problem.t) tau fractional =
  Array.init (Problem.num_candidates p) (fun c -> fractional.(c) >= tau)

let solve ?(options = default_options) (p : Problem.t) =
  let model =
    Telemetry.with_span "cmd.ground" (fun () ->
        build_model ~squared:options.squared p)
  in
  let admm =
    Telemetry.with_span "cmd.solve" (fun () ->
        Psl.Admm.solve ~options:options.admm model)
  in
  let m = Problem.num_candidates p in
  let fractional = Array.sub admm.Psl.Admm.solution 0 m in
  let selection =
    Telemetry.with_span "cmd.round" (fun () ->
        let rounded =
          match options.rounding with
          | Conditional -> conditional_round p fractional
          | Threshold tau -> threshold_round p tau fractional
        in
        if options.repair then Local_search.improve p rounded else rounded)
  in
  {
    selection;
    objective = Objective.value p selection;
    fractional;
    admm;
    num_vars = Psl.Hlmrf.num_vars model;
    num_potentials = Psl.Hlmrf.num_potentials model;
    num_constraints = Psl.Hlmrf.num_constraints model;
  }
