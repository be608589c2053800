(* The consensus ADMM kernel as it stood before the flat structure-of-arrays
   rewrite of [Psl.Admm]: a list of per-factor records, one [Array.sub] per
   local step. Kept only as the oracle of [test_psl]'s bit-identity
   property; it takes the library's options and returns its outcome, so
   the two kernels' results compare field by field. *)

open Psl

(* The prox operation a factor performs on its local copy. *)
type step =
  | Prox_linear of { weight : float }
  | Prox_hinge of { weight : float }
  | Prox_leq

type factor = {
  step : step;
  vars : int array;  (* global indices of the local variables *)
  coeffs : float array;  (* coefficient per local variable *)
  constant : float;
  norm2 : float;  (* ‖coeffs‖² *)
  x : float array;  (* local copy *)
  y : float array;  (* scaled-by-rho dual *)
}

let factor_of_expr step expr =
  let pairs = expr.Linexpr.coeffs in
  let n = List.length pairs in
  let vars = Array.make n 0 and coeffs = Array.make n 0. in
  List.iteri
    (fun k (i, c) ->
      vars.(k) <- i;
      coeffs.(k) <- c)
    pairs;
  {
    step;
    vars;
    coeffs;
    constant = expr.Linexpr.constant;
    norm2 = Linexpr.norm2 expr;
    x = Array.make n 0.;
    y = Array.make n 0.;
  }

let factors_of_model model =
  let of_potential = function
    | Hlmrf.Hinge { weight; expr } ->
      if expr.Linexpr.coeffs = [] || weight = 0. then None
      else Some (factor_of_expr (Prox_hinge { weight }) expr)
    | Hlmrf.Linear { weight; expr } ->
      if expr.Linexpr.coeffs = [] || weight = 0. then None
      else Some (factor_of_expr (Prox_linear { weight }) expr)
  in
  let of_constraint (Hlmrf.Leq e) =
    if e.Linexpr.coeffs = [] then None else Some (factor_of_expr Prox_leq e)
  in
  List.filter_map of_potential (Hlmrf.potentials model)
  @ List.filter_map of_constraint (Hlmrf.constraints model)

let dot f v =
  let acc = ref f.constant in
  Array.iteri (fun k c -> acc := !acc +. (c *. v.(k))) f.coeffs;
  !acc

(* x := v + t * coeffs *)
let axpy f v t =
  Array.iteri (fun k c -> f.x.(k) <- v.(k) +. (t *. c)) f.coeffs

let project_hyperplane f v =
  if f.norm2 = 0. then Array.blit v 0 f.x 0 (Array.length v)
  else axpy f v (-.dot f v /. f.norm2)

(* Closed-form local prox: argmin_x φ(x) + ρ/2‖x − v‖². *)
let local_solve ~rho f v =
  match f.step with
  | Prox_linear { weight } -> axpy f v (-.weight /. rho)
  | Prox_hinge { weight } ->
    let margin = dot f v in
    if margin <= 0. then Array.blit v 0 f.x 0 (Array.length v)
    else axpy f v (-.(2. *. weight *. margin) /. (rho +. (2. *. weight *. f.norm2)))
  | Prox_leq ->
    if dot f v <= 0. then Array.blit v 0 f.x 0 (Array.length v)
    else project_hyperplane f v

let clip01 v = Float.max 0. (Float.min 1. v)

let solve ?(options = Admm.default_options) model =
  let n = Hlmrf.num_vars model in
  let factors = factors_of_model model in
  let z = Array.make n 0. in
  let counts = Array.make n 0 in
  List.iter
    (fun f -> Array.iter (fun i -> counts.(i) <- counts.(i) + 1) f.vars)
    factors;
  let rho = options.Admm.rho in
  let total_copies =
    List.fold_left (fun acc f -> acc + Array.length f.vars) 0 factors
  in
  let v_buf = Array.make (List.fold_left (fun m f -> max m (Array.length f.vars)) 1 factors) 0. in
  let sums = Array.make n 0. in
  let iterations = ref 0 in
  let converged = ref false in
  (try
     for iter = 1 to options.Admm.max_iter do
       iterations := iter;
       (* local steps *)
       List.iter
         (fun f ->
           let d = Array.length f.vars in
           for k = 0 to d - 1 do
             v_buf.(k) <- z.(f.vars.(k)) -. (f.y.(k) /. rho)
           done;
           local_solve ~rho f (Array.sub v_buf 0 d))
         factors;
       (* consensus step *)
       Array.fill sums 0 n 0.;
       List.iter
         (fun f ->
           Array.iteri
             (fun k i -> sums.(i) <- sums.(i) +. f.x.(k) +. (f.y.(k) /. rho))
             f.vars)
         factors;
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
       let primal_sq = ref 0. in
       let x_sq = ref 0. and z_sq = ref 0. and y_sq = ref 0. in
       List.iter
         (fun f ->
           Array.iteri
             (fun k i ->
               let r = f.x.(k) -. z.(i) in
               f.y.(k) <- f.y.(k) +. (rho *. r);
               primal_sq := !primal_sq +. (r *. r);
               x_sq := !x_sq +. (f.x.(k) *. f.x.(k));
               z_sq := !z_sq +. (z.(i) *. z.(i));
               y_sq := !y_sq +. (f.y.(k) *. f.y.(k)))
             f.vars)
         factors;
       let sqn = sqrt (float_of_int (max 1 total_copies)) in
       let eps_pri =
         (sqn *. options.Admm.eps_abs)
         +. (options.Admm.eps_rel *. Float.max (sqrt !x_sq) (sqrt !z_sq))
       in
       let eps_dual = (sqn *. options.Admm.eps_abs) +. (options.Admm.eps_rel *. sqrt !y_sq) in
       if sqrt !primal_sq <= eps_pri && rho *. sqrt !dual_sq <= eps_dual then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  {
    Admm.solution = z;
    iterations = !iterations;
    converged = !converged;
    energy = Hlmrf.energy model z;
  }
