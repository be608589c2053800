open Relational

(* Freeze variables into labeled nulls with negative labels. Nulls live in a
   namespace no query can name — [Term.Cst c] only ever matches
   [Value.Const c] — so the canonical instance cannot conflate a frozen
   variable with a data constant. (The previous encoding froze [v] into the
   ordinary constant ["__frz_" ^ v]; any query or instance that mentioned a
   real constant with that prefix made the test silently unsound.) Negative
   labels additionally keep frozen values disjoint from chase-invented nulls,
   which are labeled from 0 upward. *)
let freeze ?(pinned = String_set.empty) atoms =
  let frozen =
    String_set.elements (String_set.union (Atom.vars_of_list atoms) pinned)
    |> List.mapi (fun i v -> (v, Value.Null (-i - 1)))
  in
  let subst_of bindings =
    List.fold_left (fun s (v, x) -> Subst.bind_exn v x s) Subst.empty bindings
  in
  ( Instance.of_tuples (List.map (Subst.apply_atom_exn (subst_of frozen)) atoms),
    subst_of (List.filter (fun (v, _) -> String_set.mem v pinned) frozen) )

let contained_in ?(distinguished = String_set.empty) q q' =
  let canonical, pinned = freeze ~pinned:distinguished q in
  Cq.extensions canonical pinned q' <> []

let equivalent ?distinguished q q' =
  contained_in ?distinguished q q' && contained_in ?distinguished q' q

let minimize ?(distinguished = String_set.empty) atoms =
  (* Positional removal: dropping the atom at index [i] removes exactly one
     occurrence, so a body containing the same atom twice (even the same
     physical atom) shrinks one step at a time. *)
  let removable kept rest =
    rest <> []
    && String_set.subset
         (String_set.inter distinguished (Atom.vars_of_list kept))
         (Atom.vars_of_list rest)
    && equivalent ~distinguished rest kept
  in
  let rec shrink kept =
    let n = List.length kept in
    let rec try_at i =
      if i >= n then kept
      else
        let rest = List.filteri (fun j _ -> j <> i) kept in
        if removable kept rest then shrink rest else try_at (i + 1)
    in
    try_at 0
  in
  shrink atoms
