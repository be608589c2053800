open Relational
open Logic

(* Core universal solutions by iterated proper-endomorphism elimination
   (ten Cate, Chiticariu, Kolaitis, Tan — "Laconic schema mappings").

   A proper endomorphism of an instance J with labeled nulls is a
   homomorphism h : J -> J (constants fixed, nulls anywhere) whose image
   misses at least one tuple; J is a core iff none exists. Since ground
   tuples are fixed points, only a non-ground tuple t0 can be missed, and a
   proper endomorphism avoiding t0 exists iff the connected component of t0
   (tuples linked through shared nulls) maps homomorphically into J minus
   t0 — tuples outside the component ride along on the identity. The chase
   invents nulls per trigger, so components are trigger-group-sized and the
   search stays local even on large solutions.

   A component's homomorphisms are the answers of a boolean conjunctive
   query: its tuples are the atoms, a constant stays a constant and a null
   becomes a variable named after its label. The query is a compiled
   [Cq.Plan], run over an index of the target. *)

let term = function
  | Value.Const c -> Term.Cst c
  | Value.Null _ as n -> Term.Var (Value.to_string n)

(* A null-connected component, its tuples in input order, compiled. *)
type component = {
  tuples : Tuple.t list;
  plan : Cq.Plan.t;
}

let compile tuples =
  let atom (t : Tuple.t) =
    { Atom.rel = t.Tuple.rel; args = Array.map term t.values }
  in
  { tuples; plan = Cq.Plan.compile (List.map atom tuples) }

(* The null-connected components of the non-ground [tuples], ordered by
   their first tuple: the classes of the least equivalence relating two
   tuples that share a null, found by union-find over the nulls. *)
let components tuples =
  let parent = Hashtbl.create 16 in
  let rec find n =
    match Hashtbl.find_opt parent n with Some p -> find p | None -> n
  in
  let root (t : Tuple.t) = find (Value.Set.min_elt (Tuple.nulls t)) in
  List.iter
    (fun t ->
      let r = root t in
      Value.Set.iter
        (fun n ->
          let rn = find n in
          if not (Value.equal rn r) then Hashtbl.replace parent rn r)
        (Tuple.nulls t))
    tuples;
  let members = Hashtbl.create 16 and roots = ref [] in
  List.iter
    (fun t ->
      let r = root t in
      match Hashtbl.find_opt members r with
      | Some ts -> Hashtbl.replace members r (t :: ts)
      | None ->
        roots := r :: !roots;
        Hashtbl.replace members r [ t ])
    tuples;
  List.rev_map (fun r -> compile (List.rev (Hashtbl.find members r))) !roots

(* The first homomorphism of [comp] into the indexed instance, as the
   image of each of its tuples; [None] if there is none. *)
let first_image index comp =
  let vars = Cq.Plan.vars comp.plan in
  let exception Found of Value.t array in
  match
    Cq.Plan.iter comp.plan index
      (Array.make (Array.length vars) (Value.Const ""))
      (fun env -> raise_notrace (Found (Array.copy env)))
  with
  | () -> None
  | exception Found env ->
    let slot = Hashtbl.create (Array.length vars) in
    Array.iteri (fun k x -> Hashtbl.replace slot x env.(k)) vars;
    let image = function
      | Value.Const _ as v -> v
      | Value.Null _ as v -> Hashtbl.find slot (Value.to_string v)
    in
    Some
      (List.map
         (fun (t : Tuple.t) -> { t with Tuple.values = Array.map image t.values })
         comp.tuples)

let hom_exists ~from ~into =
  let ground, nonground =
    List.partition Tuple.is_ground (Instance.tuples from)
  in
  (* constants are fixed, so a ground tuple can only map to itself *)
  List.for_all (fun t -> Instance.mem t into) ground
  &&
  (* nulls never cross components, so the search factorizes per component *)
  let index = Cq.Index.build into in
  List.for_all
    (fun comp -> Option.is_some (first_image index comp))
    (components nonground)

(* Retract the component of the first non-ground tuple [t0] that maps into
   the instance minus [t0] onto its image — everything else is untouched,
   the endomorphism being the identity there — until none does. *)
let rec core inst =
  let nonground =
    List.filter (fun t -> not (Tuple.is_ground t)) (Instance.tuples inst)
  in
  let comps = components nonground in
  let retract t0 =
    let comp = List.find (fun c -> List.memq t0 c.tuples) comps in
    Option.map
      (fun image -> (comp, image))
      (first_image (Cq.Index.build (Instance.remove t0 inst)) comp)
  in
  match List.find_map retract nonground with
  | None -> inst
  | Some (comp, image) ->
    let rest = List.fold_left (Fun.flip Instance.remove) inst comp.tuples in
    core (Instance.add_all image rest)

let is_core inst = Instance.equal (core inst) inst
