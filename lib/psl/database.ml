module Smap = Map.Make (String)

type t = {
  preds : Predicate.t Smap.t;
  observed : float Gatom.Map.t;
}

let create preds =
  let m =
    List.fold_left
      (fun acc (p : Predicate.t) ->
        if Smap.mem p.Predicate.name acc then
          invalid_arg
            (Printf.sprintf "Database.create: duplicate predicate %s" p.Predicate.name)
        else Smap.add p.Predicate.name p acc)
      Smap.empty preds
  in
  { preds = m; observed = Gatom.Map.empty }

let predicate t name = Smap.find name t.preds

let predicates t = Smap.bindings t.preds |> List.map snd

let observe atom value t =
  (match Smap.find_opt atom.Gatom.pred t.preds with
  | None ->
    invalid_arg (Printf.sprintf "Database.observe: unknown predicate %s" atom.Gatom.pred)
  | Some p ->
    if p.Predicate.arity <> Array.length atom.Gatom.args then
      invalid_arg
        (Printf.sprintf "Database.observe: arity mismatch for %s" atom.Gatom.pred));
  (* written so that NaN, which fails every comparison, is rejected too *)
  if not (value >= 0. && value <= 1.) then
    invalid_arg "Database.observe: truth value outside [0,1]";
  { t with observed = Gatom.Map.add atom value t.observed }

let observe_all l t = List.fold_left (fun t (a, v) -> observe a v t) t l

let truth t atom = Gatom.Map.find_opt atom t.observed

let truth_closed t atom =
  match Smap.find_opt atom.Gatom.pred t.preds with
  | None ->
    invalid_arg (Printf.sprintf "Database.truth_closed: unknown predicate %s" atom.Gatom.pred)
  | Some p ->
    if not p.Predicate.closed then
      invalid_arg
        (Printf.sprintf "Database.truth_closed: %s is open" atom.Gatom.pred)
    else Option.value ~default:0. (Gatom.Map.find_opt atom t.observed)

let observed_of t name =
  Gatom.Map.fold
    (fun a v acc -> if String.equal a.Gatom.pred name then (a, v) :: acc else acc)
    t.observed []
  |> List.rev
