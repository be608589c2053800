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

(* A tuple's support: the (candidate, degree) pairs that can explain it,
   candidates descending. Equal supports are equal lists, compared by exact
   degree. *)
module Support = Hashtbl.Make (struct
  type t = (int * Frac.t) list

  let equal =
    List.equal (fun (c, d) (c', d') -> Int.equal c c' && Frac.equal d d')

  let hash =
    List.fold_left
      (fun h (c, d) -> Hashtbl.hash (h, c, Frac.num d, Frac.den d))
      0
end)

let build_model ?(squared = false) (p : Problem.t) =
  (* Linear soft losses become squared hinges in the squared flavour; their
     expressions are non-negative over the box, so the hinge is exact. *)
  let soft weight expr =
    if squared then Psl.Hlmrf.Hinge { weight; expr; squared = true }
    else Psl.Hlmrf.Linear { weight; expr }
  in
  let m = Problem.num_candidates p in
  let n_tuples = Problem.num_tuples p in
  let support = Array.make n_tuples [] in
  Array.iteri
    (fun c cover_list ->
      Array.iter (fun (ti, d) -> support.(ti) <- (c, d) :: support.(ti)) cover_list)
    p.Problem.covers;
  (* lifting: tuples with equal supports share one explained-atom, numbered
     by its first tuple; [groups] holds (support, size), in that order *)
  let index = Support.create 64 in
  let groups = ref [] in
  Array.iter
    (fun sup ->
      match Support.find_opt index sup with
      | Some size -> incr size
      | None ->
        let size = ref 1 in
        Support.add index sup size;
        groups := (sup, size) :: !groups)
    support;
  let groups = List.rev !groups in
  let model = Psl.Hlmrf.create ~num_vars:(m + List.length groups) in
  let w1 = p.Problem.weights.Problem.w_unexplained in
  (* per-candidate selection cost: w2·errors + w3·size, as ¬in(θ) priors *)
  Array.iteri
    (fun c cost ->
      let cost = Frac.to_float cost in
      if cost > 0. then
        Psl.Hlmrf.add_potential model
          (soft cost (Psl.Linexpr.make [ (c, 1.) ] 0.)))
    p.Problem.cand_cost;
  (* per group of k tuples: k copies of the "wants to be explained" loss as
     one, and the shared support constraint *)
  List.iteri
    (fun g (sup, size) ->
      let y = m + g in
      Psl.Hlmrf.add_potential model
        (soft (float_of_int (!size * w1)) (Psl.Linexpr.make [ (y, -1.) ] 1.));
      Psl.Hlmrf.add_constraint model
        (Psl.Hlmrf.Leq
           (Psl.Linexpr.make
              ((y, 1.) :: List.map (fun (c, d) -> (c, -.Frac.to_float d)) sup)
              0.)))
    groups;
  model

let conditional_round (p : Problem.t) fractional =
  let m = Problem.num_candidates p in
  let order =
    List.init m Fun.id
    |> List.sort (fun a b -> Float.compare fractional.(b) fractional.(a))
  in
  let sel = Array.make m false in
  let best = Array.make (Problem.num_tuples p) Frac.zero in
  List.iter
    (fun c ->
      let gain = Greedy.marginal_gain p ~best c in
      if Frac.(Frac.zero < gain) then begin
        sel.(c) <- true;
        Array.iter
          (fun (ti, d) -> if Frac.(best.(ti) < d) then best.(ti) <- d)
          p.Problem.covers.(c)
      end)
    order;
  sel

let threshold_round (p : Problem.t) tau fractional =
  Array.init (Problem.num_candidates p) (fun c -> fractional.(c) >= tau)

let solve ?(options = default_options) (p : Problem.t) =
  let reduced, model =
    Telemetry.with_span "cmd.ground" (fun () ->
        let reduced = Preprocess.run p in
        (reduced, build_model ~squared:options.squared reduced.Preprocess.problem))
  in
  let rp = reduced.Preprocess.problem in
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
          | Conditional -> conditional_round rp fractional
          | Threshold tau -> threshold_round rp tau fractional
        in
        if options.repair then Local_search.improve rp rounded else rounded)
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
