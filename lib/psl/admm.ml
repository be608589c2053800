type options = {
  rho : float;
  max_iter : int;
  eps_abs : float;
  eps_rel : float;
}

let default_options = { rho = 1.0; max_iter = 10_000; eps_abs = 1e-5; eps_rel = 1e-4 }

type outcome = {
  solution : float array;
  iterations : int;
  converged : bool;
  energy : float;
}

(* The prox operation a factor performs on its slice of local copies. *)
type kind = Linear | Squared | Leq

(* The model as flat arrays. Factor [f] owns local copies [off.(f)] to
   [off.(f + 1) - 1]; copy [j] stands for variable [var.(j)] with
   coefficient [coeff.(j)]. Potentials come first, then constraints, each
   in insertion order, and a factor's copies keep its expression's order. *)
type layout = {
  kind : kind array;
  weight : float array;  (* unused by [Leq] *)
  constant : float array;
  norm2 : float array;  (* ‖coeffs‖² *)
  off : int array;  (* one more entry than factors *)
  var : int array;
  coeff : float array;
}

let layout_of_model model =
  let factor kind weight (e : Linexpr.t) =
    if e.coeffs = [] || weight = 0. then None else Some (kind, weight, e)
  in
  let factors =
    List.filter_map
      (function
        | Hlmrf.Hinge { weight; expr } -> factor Squared weight expr
        | Hlmrf.Linear { weight; expr } -> factor Linear weight expr)
      (Hlmrf.potentials model)
    @ List.filter_map (fun (Hlmrf.Leq e) -> factor Leq 1. e) (Hlmrf.constraints model)
  in
  let exprs = List.map (fun (_, _, e) -> e) factors in
  let copies = Array.of_list (List.concat_map (fun e -> e.Linexpr.coeffs) exprs) in
  let off = Array.make (List.length factors + 1) 0 in
  List.iteri (fun f e -> off.(f + 1) <- off.(f) + List.length e.Linexpr.coeffs) exprs;
  let field g = Array.of_list (List.map g factors) in
  {
    kind = field (fun (k, _, _) -> k);
    weight = field (fun (_, w, _) -> w);
    constant = field (fun (_, _, e) -> e.Linexpr.constant);
    norm2 = field (fun (_, _, e) -> Linexpr.norm2 e);
    off;
    var = Array.map fst copies;
    coeff = Array.map snd copies;
  }

(* Bad options do not fail by themselves: ADMM runs to its cap and
   returns NaN, or reports a wrong optimum as converged. *)
let check_options o =
  let bad what x = invalid_arg (Printf.sprintf "Admm.solve: %s %g" what x) in
  if not (Float.is_finite o.rho && o.rho > 0.) then
    bad "non-positive or non-finite rho" o.rho;
  if not (Float.is_finite o.eps_abs && o.eps_abs >= 0.) then
    bad "negative or non-finite eps_abs" o.eps_abs;
  if not (Float.is_finite o.eps_rel && o.eps_rel >= 0.) then
    bad "negative or non-finite eps_rel" o.eps_rel;
  if o.max_iter < 0 then
    invalid_arg (Printf.sprintf "Admm.solve: negative max_iter %d" o.max_iter)

let clip01 v = Float.max 0. (Float.min 1. v)

let admm_iterations_counter = Telemetry.Counter.make "admm.iterations"

let solve ?(options = default_options) model =
  check_options options;
  let { kind; weight; constant; norm2; off; var; coeff } = layout_of_model model in
  let n = Hlmrf.num_vars model in
  let nf = Array.length kind and total_copies = Array.length var in
  let x = Array.make total_copies 0. and y = Array.make total_copies 0. in
  let v = Array.make total_copies 0. in
  let z = Array.make n 0. and sums = Array.make n 0. and counts = Array.make n 0 in
  Array.iter (fun i -> counts.(i) <- counts.(i) + 1) var;
  let rho = options.rho in
  (* aᵀu + b over factor [f]'s slice of [u] *)
  let dot f u =
    let acc = ref constant.(f) in
    for j = off.(f) to off.(f + 1) - 1 do
      acc := !acc +. (coeff.(j) *. u.(j))
    done;
    !acc
  in
  (* x := v + t · coeff over factor [f]'s slice *)
  let axpy f t =
    for j = off.(f) to off.(f + 1) - 1 do
      x.(j) <- v.(j) +. (t *. coeff.(j))
    done
  in
  let keep f = Array.blit v off.(f) x off.(f) (off.(f + 1) - off.(f)) in
  let project f = if norm2.(f) = 0. then keep f else axpy f (-.dot f v /. norm2.(f)) in
  let iterations = ref 0 and converged = ref false in
  while (not !converged) && !iterations < options.max_iter do
    incr iterations;
    for j = 0 to total_copies - 1 do
      v.(j) <- z.(var.(j)) -. (y.(j) /. rho)
    done;
    (* closed-form local prox: argmin_x φ(x) + ρ/2‖x − v‖² *)
    for f = 0 to nf - 1 do
      match kind.(f) with
      | Linear -> axpy f (-.weight.(f) /. rho)
      | Squared ->
        let margin = dot f v in
        if margin <= 0. then keep f
        else
          let w = weight.(f) in
          axpy f (-.(2. *. w *. margin) /. (rho +. (2. *. w *. norm2.(f))))
      | Leq -> if dot f v <= 0. then keep f else project f
    done;
    (* consensus step *)
    Array.fill sums 0 n 0.;
    for j = 0 to total_copies - 1 do
      let i = var.(j) in
      sums.(i) <- sums.(i) +. x.(j) +. (y.(j) /. rho)
    done;
    let dual_sq = ref 0. in
    for i = 0 to n - 1 do
      if counts.(i) > 0 then begin
        let znew = clip01 (sums.(i) /. float_of_int counts.(i)) in
        let dz = znew -. z.(i) in
        dual_sq := !dual_sq +. (float_of_int counts.(i) *. dz *. dz);
        z.(i) <- znew
      end
    done;
    (* dual step and primal residual *)
    let primal_sq = ref 0. and x_sq = ref 0. and z_sq = ref 0. and y_sq = ref 0. in
    for j = 0 to total_copies - 1 do
      let zi = z.(var.(j)) in
      let r = x.(j) -. zi in
      y.(j) <- y.(j) +. (rho *. r);
      primal_sq := !primal_sq +. (r *. r);
      x_sq := !x_sq +. (x.(j) *. x.(j));
      z_sq := !z_sq +. (zi *. zi);
      y_sq := !y_sq +. (y.(j) *. y.(j))
    done;
    let sqn = sqrt (float_of_int (max 1 total_copies)) in
    let eps_pri =
      (sqn *. options.eps_abs) +. (options.eps_rel *. Float.max (sqrt !x_sq) (sqrt !z_sq))
    in
    let eps_dual = (sqn *. options.eps_abs) +. (options.eps_rel *. sqrt !y_sq) in
    converged := sqrt !primal_sq <= eps_pri && rho *. sqrt !dual_sq <= eps_dual
  done;
  Telemetry.Counter.add admm_iterations_counter !iterations;
  {
    solution = z;
    iterations = !iterations;
    converged = !converged;
    energy = Hlmrf.energy model z;
  }
