open Util

type breakdown = {
  unexplained : Frac.t;
  errors : int;
  size : int;
  total : Frac.t;
}

let group_coverage (p : Problem.t) sel =
  let best = Array.make (Problem.num_groups p) Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then
        Array.iter
          (fun (g, d) -> if Frac.(best.(g) < d) then best.(g) <- d)
          p.Problem.group_covers.(c))
    sel;
  best

(* Σ_g k_g·best_g: the explained mass of the tuples *)
let covered (p : Problem.t) best =
  let acc = ref Frac.zero in
  Array.iteri
    (fun g b ->
      if not (Frac.is_zero b) then
        acc := Frac.add !acc (Frac.mul (Frac.of_int p.Problem.group_size.(g)) b))
    best;
  !acc

(* |J| as the constant's tuples plus the groups' *)
let tuple_count (p : Problem.t) =
  Array.fold_left ( + ) p.Problem.uncoverable p.Problem.group_size

let unexplained (p : Problem.t) best =
  Frac.mul
    (Frac.of_int p.Problem.weights.Problem.w_unexplained)
    (Frac.sub (Frac.of_int (tuple_count p)) (covered p best))

let breakdown (p : Problem.t) sel =
  let unexplained = unexplained p (group_coverage p sel) in
  let errors = ref 0 and size = ref 0 and cost = ref Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then begin
        errors := !errors + Cover.error_count p.Problem.stats.(c);
        size := !size + p.Problem.stats.(c).Cover.size;
        cost := Frac.add !cost p.Problem.cand_cost.(c)
      end)
    sel;
  { unexplained; errors = !errors; size = !size; total = Frac.add unexplained !cost }

let value p sel = (breakdown p sel).total

let lower_bound (p : Problem.t) =
  (* selecting is free and every group gets its best coverage: no selection
     scores below this *)
  unexplained p (group_coverage p (Array.make (Problem.num_candidates p) true))

let empty_value p = unexplained p (Array.make (Problem.num_groups p) Frac.zero)

let pp_breakdown ppf b =
  Format.fprintf ppf "unexplained %a + errors %d + size %d = %a" Frac.pp
    b.unexplained b.errors b.size Frac.pp b.total
