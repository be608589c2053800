(* The map-based indexed evaluator and chase that the compiled plan
   replaced, kept as the oracle of the chase and [Cq.extensions]
   differentials in test_chase. Every partial answer is a [Subst] map; an
   atom probes the index at its first position the map binds (a constant,
   or a variable bound before the atom), or lists the whole relation; a
   trigger's substitution is the answer extended with one fresh null per
   existential variable, drawn in ascending variable order, and its tuples
   are the head atoms under it. [satisfies] is the per-answer definition
   of tgd satisfaction [Chase.satisfies] replaced: one extension search
   over the target per body answer over the source. *)
open Relational
open Logic

let match_atom s (a : Atom.t) (tu : Tuple.t) =
  let n = Array.length a.args in
  if n <> Array.length tu.Tuple.values then None
  else
    let rec loop i s =
      if i >= n then Some s
      else
        match a.args.(i), tu.Tuple.values.(i) with
        | Term.Cst c, v ->
          if Value.equal (Value.Const c) v then loop (i + 1) s else None
        | Term.Var x, v -> (
          match Subst.bind x v s with
          | None -> None
          | Some s -> loop (i + 1) s)
    in
    loop 0 s

let candidates index s (a : Atom.t) =
  let rec first_bound i =
    if i >= Array.length a.Atom.args then None
    else
      match Subst.apply_term s a.Atom.args.(i) with
      | Some v -> Some (i, v)
      | None -> first_bound (i + 1)
  in
  match first_bound 0 with
  | Some (pos, v) -> Relational.Index.find index a.Atom.rel pos v
  | None -> Relational.Index.tuples_of index a.Atom.rel

let extensions index s atoms =
  let rec eval s atoms acc =
    match atoms with
    | [] -> s :: acc
    | a :: tl ->
      List.fold_left
        (fun acc tu ->
          match match_atom s a tu with
          | None -> acc
          | Some s' -> eval s' tl acc)
        acc (candidates index s a)
  in
  List.rev (eval s (Cq.order_atoms atoms) [])

type trigger = {
  tgd_index : int;
  subst : Subst.t;
  tuples : Tuple.t list;
  nulls : Value.Set.t;
}

let fire index tgds =
  let nulls = Null_source.create () in
  List.concat
    (List.mapi
       (fun tgd_index (tgd : Tgd.t) ->
         let existentials = String_set.elements (Tgd.existential_vars tgd) in
         List.map
           (fun subst ->
             let subst, invented =
               List.fold_left
                 (fun (s, inv) x ->
                   let null = Null_source.fresh nulls in
                   (Subst.bind_exn x null s, Value.Set.add null inv))
                 (subst, Value.Set.empty) existentials
             in
             {
               tgd_index;
               subst;
               tuples = List.map (Subst.apply_atom_exn subst) tgd.Tgd.head;
               nulls = invented;
             })
           (extensions index Subst.empty tgd.Tgd.body))
       tgds)

let satisfies ~source ~target (tgd : Tgd.t) =
  let frontier = Tgd.frontier_vars tgd in
  let target = Relational.Index.build target in
  extensions (Relational.Index.build source) Subst.empty tgd.Tgd.body
  |> List.for_all (fun subst ->
         let restricted =
           List.fold_left
             (fun acc (v, x) ->
               if String_set.mem v frontier then Subst.bind_exn v x acc else acc)
             Subst.empty (Subst.bindings subst)
         in
         extensions target restricted tgd.Tgd.head <> [])
