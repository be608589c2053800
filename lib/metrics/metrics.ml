open Util

type scores = {
  precision : float;
  recall : float;
  f1 : float;
}

let make precision recall =
  { precision; recall; f1 = Stats.harmonic precision recall }

(* Tuple-level: each target tuple's [explains], from the per-tuple covers *)
let tuple_level (p : Core.Problem.t) sel =
  let best = Array.make (Core.Problem.num_tuples p) Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then
        Array.iter
          (fun (ti, d) -> if Frac.(best.(ti) < d) then best.(ti) <- d)
          p.Core.Problem.covers.(c))
    sel;
  let covered = Array.fold_left Frac.add Frac.zero best in
  let n_tuples = Array.length p.Core.Problem.tuples in
  let recall =
    if n_tuples = 0 then 1.
    else Frac.to_float covered /. float_of_int n_tuples
  in
  let produced = ref 0 and errors = ref 0 in
  Array.iteri
    (fun c selected ->
      if selected then begin
        produced := !produced + p.Core.Problem.stats.(c).Cover.produced;
        errors := !errors + Cover.error_count p.Core.Problem.stats.(c)
      end)
    sel;
  let precision =
    if !produced = 0 then 1.
    else float_of_int (!produced - !errors) /. float_of_int !produced
  in
  make precision recall

let mapping_level ~candidates ~truth sel =
  let selected =
    List.filteri (fun i _ -> sel.(i)) candidates
  in
  let tp =
    List.length
      (List.filter
         (fun c -> List.exists (Logic.Tgd.equal_up_to_renaming c) truth)
         selected)
  in
  let precision =
    match selected with
    | [] -> 1.
    | _ :: _ -> float_of_int tp /. float_of_int (List.length selected)
  in
  let recall =
    match truth with
    | [] -> 1.
    | _ :: _ -> float_of_int tp /. float_of_int (List.length truth)
  in
  make precision recall

let pp ppf s =
  Format.fprintf ppf "P=%.2f R=%.2f F1=%.2f" s.precision s.recall s.f1
