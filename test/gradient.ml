open Psl

let clip01 v = Float.max 0. (Float.min 1. v)

let penalised_energy ~penalty model x =
  let violation acc = function
    | Hlmrf.Leq e -> acc +. (Float.max 0. (Linexpr.eval e x) ** 2.)
    | Hlmrf.Eq e -> acc +. (Linexpr.eval e x ** 2.)
  in
  Hlmrf.energy model x
  +. (penalty *. List.fold_left violation 0. (Hlmrf.constraints model))

let add_subgradient g scale expr =
  List.iter (fun (i, c) -> g.(i) <- g.(i) +. (scale *. c)) expr.Linexpr.coeffs

let subgradient ~penalty model x g =
  Array.fill g 0 (Array.length g) 0.;
  List.iter
    (fun p ->
      match p with
      | Hlmrf.Hinge { weight; expr; squared } ->
        let v = Linexpr.eval expr x in
        if v > 0. then
          add_subgradient g (if squared then 2. *. weight *. v else weight) expr
      | Hlmrf.Linear { weight; expr } -> add_subgradient g weight expr)
    (Hlmrf.potentials model);
  List.iter
    (fun c ->
      match c with
      | Hlmrf.Leq e ->
        let v = Linexpr.eval e x in
        if v > 0. then add_subgradient g (2. *. penalty *. v) e
      | Hlmrf.Eq e ->
        let v = Linexpr.eval e x in
        add_subgradient g (2. *. penalty *. v) e)
    (Hlmrf.constraints model)

let solve ?(iterations = 5000) ?(step = 0.5) ?(penalty = 100.) model =
  let n = Hlmrf.num_vars model in
  let x = Array.make n 0.5 in
  let g = Array.make n 0. in
  let best = Array.copy x in
  let best_energy = ref (penalised_energy ~penalty model x) in
  for t = 1 to iterations do
    subgradient ~penalty model x g;
    let eta = step /. sqrt (float_of_int t) in
    for i = 0 to n - 1 do
      x.(i) <- clip01 (x.(i) -. (eta *. g.(i)))
    done;
    let e = penalised_energy ~penalty model x in
    if e < !best_energy then begin
      best_energy := e;
      Array.blit x 0 best 0 n
    end
  done;
  best
