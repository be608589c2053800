open Relational

(* Greedy join ordering: repeatedly pick the atom sharing the most variables
   with those already placed; break ties towards atoms with fewer distinct
   variables (more selective). *)
let order_atoms atoms =
  let rec pick placed_vars remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ :: _ ->
      let score a =
        let vs = Atom.vars a in
        let bound = String_set.cardinal (String_set.inter vs placed_vars) in
        let free = String_set.cardinal vs - bound in
        (bound, -free)
      in
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if score a > score b then Some a else best)
          None remaining
      in
      (match best with
      | None -> List.rev acc
      | Some a ->
        let remaining = List.filter (fun x -> x != a) remaining in
        pick (String_set.union placed_vars (Atom.vars a)) remaining (a :: acc))
  in
  pick String_set.empty atoms []

(* Match one atom against one tuple under a substitution. *)
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

let extensions_ordered inst s atoms =
  let rec eval s atoms acc =
    match atoms with
    | [] -> s :: acc
    | a :: tl ->
      Tuple.Set.fold
        (fun tu acc ->
          match match_atom s a tu with
          | None -> acc
          | Some s' -> eval s' tl acc)
        (Instance.tuples_of inst a.Atom.rel)
        acc
  in
  List.rev (eval s atoms [])

let extensions inst s atoms = extensions_ordered inst s (order_atoms atoms)

let answers inst atoms = extensions inst Subst.empty atoms

let answers_seq inst atoms = List.to_seq (answers inst atoms)

module Index = struct
  include Relational.Index

  (* Candidate tuples for an atom under a substitution: probe the first
     bound position, or fall back to the full relation. *)
  let candidates t s (a : Atom.t) =
    let rec first_bound i =
      if i >= Array.length a.Atom.args then None
      else
        match Subst.apply_term s a.Atom.args.(i) with
        | Some v -> Some (i, v)
        | None -> first_bound (i + 1)
    in
    match first_bound 0 with
    | Some (pos, v) -> find t a.Atom.rel pos v
    | None -> Tuple.Set.elements (Instance.tuples_of (instance t) a.Atom.rel)
end

let extensions_indexed index s atoms =
  let ordered = order_atoms atoms in
  let rec eval s atoms acc =
    match atoms with
    | [] -> s :: acc
    | a :: tl ->
      List.fold_left
        (fun acc tu ->
          match match_atom s a tu with
          | None -> acc
          | Some s' -> eval s' tl acc)
        acc (Index.candidates index s a)
  in
  List.rev (eval s ordered [])

let answers_indexed index atoms = extensions_indexed index Subst.empty atoms

let holds inst atoms =
  let ordered = order_atoms atoms in
  let rec eval s = function
    | [] -> true
    | a :: tl ->
      Tuple.Set.exists
        (fun tu ->
          match match_atom s a tu with None -> false | Some s' -> eval s' tl)
        (Instance.tuples_of inst a.Atom.rel)
  in
  eval Subst.empty ordered
