type potential =
  | Hinge of { weight : float; expr : Linexpr.t }
  | Linear of { weight : float; expr : Linexpr.t }

type constr = Leq of Linexpr.t

type t = {
  num_vars : int;
  mutable potentials : potential list;  (* reversed *)
  mutable constraints : constr list;  (* reversed *)
}

let create ~num_vars = { num_vars; potentials = []; constraints = [] }

let num_vars t = t.num_vars

(* A NaN or infinite number anywhere in the model turns every ADMM update
   into NaN, which the convergence test never catches. *)
let check_finite what x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Hlmrf: non-finite %s %g" what x)

let check_expr t expr =
  List.iter
    (fun (i, c) ->
      if i < 0 || i >= t.num_vars then
        invalid_arg (Printf.sprintf "Hlmrf: variable index %d out of range" i);
      check_finite "coefficient" c)
    expr.Linexpr.coeffs;
  check_finite "constant" expr.Linexpr.constant

let add_potential t p =
  (match p with
  | Hinge { weight; expr } ->
    check_finite "weight" weight;
    if weight < 0. then invalid_arg "Hlmrf.add_potential: negative hinge weight";
    check_expr t expr
  | Linear { weight; expr } ->
    check_finite "weight" weight;
    check_expr t expr);
  t.potentials <- p :: t.potentials

let add_constraint t (Leq e as c) =
  check_expr t e;
  t.constraints <- c :: t.constraints

let potentials t = List.rev t.potentials

let constraints t = List.rev t.constraints

let num_potentials t = List.length t.potentials

let num_constraints t = List.length t.constraints

let energy t x =
  List.fold_left
    (fun acc p ->
      match p with
      | Hinge { weight; expr } ->
        let v = Float.max 0. (Linexpr.eval expr x) in
        acc +. (weight *. (v *. v))
      | Linear { weight; expr } -> acc +. (weight *. Linexpr.eval expr x))
    0. t.potentials

let feasible ?(tol = 1e-6) t x =
  let box_ok =
    Array.for_all (fun v -> v >= -.tol && v <= 1. +. tol) x
  in
  box_ok
  && List.for_all
       (fun (Leq e) -> Linexpr.eval e x <= tol)
       t.constraints
