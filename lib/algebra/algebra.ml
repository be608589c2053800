open Relational
open Logic

module Smap = Map.Make (String)

(* --- term unification ---------------------------------------------------- *)

(* Terms are flat (variables and constants, no function symbols), so
   unification is union-find-light: walk a term to its representative, bind
   unbound variables. Walking before binding keeps the substitution acyclic. *)
let rec walk s t =
  match t with
  | Term.Var v -> (
    match Smap.find_opt v s with Some t' -> walk s t' | None -> t)
  | Term.Cst _ -> t

let unify_term s t1 t2 =
  let t1 = walk s t1 and t2 = walk s t2 in
  match (t1, t2) with
  | Term.Cst a, Term.Cst b -> if String.equal a b then Some s else None
  | Term.Var v, t | t, Term.Var v ->
    if t = Term.Var v then Some s else Some (Smap.add v t s)

let unify_atom s (a : Atom.t) (b : Atom.t) =
  if (not (String.equal a.Atom.rel b.Atom.rel)) || Atom.arity a <> Atom.arity b
  then None
  else
    let rec go s i =
      if i >= Array.length a.Atom.args then Some s
      else
        match unify_term s a.Atom.args.(i) b.Atom.args.(i) with
        | Some s -> go s (i + 1)
        | None -> None
    in
    go s 0

let apply_atom s (a : Atom.t) =
  Atom.make a.Atom.rel (Array.to_list (Array.map (walk s) a.Atom.args))

(* --- chase through hops -------------------------------------------------- *)

let next_null_label inst =
  List.fold_left
    (fun acc (t : Tuple.t) ->
      Array.fold_left
        (fun acc v ->
          match v with Value.Null k -> max acc (k + 1) | Value.Const _ -> acc)
        acc t.Tuple.values)
    0 (Instance.tuples inst)

let chase_through source hops =
  (* One null source threads through every hop, starting above any null
     already present in [source], so labels never collide across rounds. *)
  let nulls = Null_source.create ~first:(next_null_label source) () in
  List.fold_left
    (fun inst hop -> Chase.universal_solution ~nulls inst hop)
    source hops

(* --- composition --------------------------------------------------------- *)

(* Unfold one M23 tgd against the heads of M12 (resolution over the
   intermediate schema): each T-atom of the body is unified either with a
   head atom of an M12 tgd instantiated earlier on this branch (so joins on
   a shared existential resolve within one trigger) or with a head atom of a
   freshly renamed M12 instance, whose body atoms accumulate into the
   composed body. The search is purely syntactic and may overshoot — an
   unfolding that equates existentials of distinct triggers is unsound — so
   every result is verified against the two-hop chase before it survives. *)
let unfold ~limit m12 (t23 : Tgd.t) =
  let t23 = Tgd.rename_apart ~suffix:"_c" t23 in
  let results = ref [] in
  let n_results = ref 0 in
  let max_inst = List.length t23.Tgd.body in
  let counter = ref 0 in
  let rec go remaining avail bodies s n_inst =
    if !n_results >= limit then ()
    else
      match remaining with
      | [] ->
        let body = List.map (apply_atom s) (List.concat (List.rev bodies)) in
        let head = List.map (apply_atom s) t23.Tgd.head in
        if body <> [] then begin
          incr n_results;
          results := (body, head) :: !results
        end
      | a :: rest ->
        List.iter
          (fun h ->
            match unify_atom s a h with
            | Some s' -> go rest avail bodies s' n_inst
            | None -> ())
          avail;
        if n_inst < max_inst then
          List.iter
            (fun (t12 : Tgd.t) ->
              let k = !counter in
              incr counter;
              let t12 =
                Tgd.rename_apart ~suffix:(Printf.sprintf "_g%d" k) t12
              in
              List.iter
                (fun h ->
                  match unify_atom s a h with
                  | Some s' ->
                    go rest (avail @ t12.Tgd.head) (t12.Tgd.body :: bodies) s'
                      (n_inst + 1)
                  | None -> ())
                t12.Tgd.head)
            m12
  in
  go t23.Tgd.body [] [] Smap.empty 0;
  List.rev !results

let compose ?(limit = 64) m12 m23 =
  let candidates =
    List.concat_map
      (fun (t23 : Tgd.t) ->
        List.mapi
          (fun i (body, head) ->
            Tgd.make
              ~label:(Printf.sprintf "%s.%d" t23.Tgd.label i)
              ~body ~head ())
          (unfold ~limit m12 t23))
      m23
  in
  (* Drop unsound unfoldings: a composed tgd survives only if it actually
     holds in M12 ∘ M23, decided by chasing its frozen body through both
     hops. Then shrink each survivor and prune the set. *)
  let sound =
    List.filter
      (fun c -> Chase.Implication.implied_through ~hops:[ m12; m23 ] c)
      candidates
  in
  let shrunk = List.map Chase.Implication.minimize_tgd sound in
  let _, deduped =
    List.fold_left
      (fun (seen, acc) c ->
        let key = Tgd.canonicalize c in
        if Tgd.Set.mem key seen then (seen, acc)
        else (Tgd.Set.add key seen, c :: acc))
      (Tgd.Set.empty, []) shrunk
  in
  Chase.Implication.minimize (List.rev deduped)

let compose_all ?limit = function
  | [] -> []
  | m :: rest -> List.fold_left (fun acc hop -> compose ?limit acc hop) m rest

(* --- whole-mapping containment ------------------------------------------- *)

let contained_in m m' = List.for_all (Chase.Implication.implied_by ~by:m) m'

let equivalent m m' = contained_in m m' && contained_in m' m

(* Both bracketings compose through full first hops only when [m1] and
   [m2] are full ([m1 ; m2] is then full too), so only then must they agree,
   and only without the unfolding budget. *)
let associative m1 m2 m3 =
  if List.for_all Tgd.is_full (m1 @ m2) then
    let compose = compose ~limit:max_int in
    equivalent (compose (compose m1 m2) m3) (compose m1 (compose m2 m3))
  else
    List.for_all
      (Chase.Implication.implied_through ~hops:[ m1; m2; m3 ])
      (compose (compose m1 m2) m3 @ compose m1 (compose m2 m3))
