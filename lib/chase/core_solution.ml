open Relational
open Util

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
   backtracking search stays local even on large solutions. *)

let tuple_nulls (t : Tuple.t) =
  Array.fold_left
    (fun acc v -> match v with Value.Null _ -> Value.Set.add v acc | Value.Const _ -> acc)
    Value.Set.empty t.values

let is_ground (t : Tuple.t) =
  Array.for_all (function Value.Const _ -> true | Value.Null _ -> false) t.values

(* Extend [asg] (null -> value) so that tuple [pattern] maps exactly onto
   [target]; [None] on conflict. Targets may themselves contain nulls: an
   endomorphism is free to map a null onto another null. *)
let match_onto ~asg (pattern : Tuple.t) (target : Tuple.t) =
  if not (String.equal pattern.Tuple.rel target.Tuple.rel) then None
  else if Array.length pattern.values <> Array.length target.values then None
  else
    let n = Array.length pattern.values in
    let rec loop i asg =
      if i >= n then Some asg
      else
        match pattern.values.(i) with
        | Value.Const _ as c ->
          if Value.equal c target.values.(i) then loop (i + 1) asg else None
        | Value.Null _ as nul -> (
          match Value.Map.find_opt nul asg with
          | Some bound ->
            if Value.equal bound target.values.(i) then loop (i + 1) asg
            else None
          | None -> loop (i + 1) (Value.Map.add nul target.values.(i) asg))
    in
    loop 0 asg

let apply_asg asg (t : Tuple.t) =
  {
    t with
    Tuple.values =
      Array.map
        (fun v ->
          match v with
          | Value.Const _ -> v
          | Value.Null _ -> (
            match Value.Map.find_opt v asg with Some v' -> v' | None -> v))
        t.values;
  }

(* Search a homomorphism sending every pattern tuple onto some target
   tuple, extending [asg]; patterns are tried in order, targets in the
   order given. Deterministic and complete. *)
let rec search_hom ~targets ~asg = function
  | [] -> Some asg
  | (pattern : Tuple.t) :: rest ->
    List.fold_left
      (fun found target ->
        match found with
        | Some _ -> found
        | None -> (
          match match_onto ~asg pattern target with
          | None -> None
          | Some asg' -> search_hom ~targets ~asg:asg' rest))
      None (targets pattern)

(* Connected component of [start] within [tuples] (an [(id, nulls)] list of
   non-ground tuples): the least set containing [start] and closed under
   sharing a null. Returned ascending by id. *)
let component ~tuples start =
  let seen = Hashtbl.create 16 in
  let rec grow frontier_nulls members =
    let fresh =
      List.filter
        (fun (i, nulls) ->
          (not (Hashtbl.mem seen i))
          && not (Value.Set.is_empty (Value.Set.inter nulls frontier_nulls)))
        tuples
    in
    if fresh = [] then members
    else begin
      List.iter (fun (i, _) -> Hashtbl.replace seen i ()) fresh;
      let nulls =
        List.fold_left
          (fun acc (_, ns) -> Value.Set.union acc ns)
          frontier_nulls fresh
      in
      grow nulls (List.rev_append (List.map fst fresh) members)
    end
  in
  let _, start_nulls = List.find (fun (i, _) -> i = start) tuples in
  Hashtbl.replace seen start ();
  List.sort compare (grow start_nulls [ start ])

(* The ids of a component in matching order: the lowest id first, then
   repeatedly, among the ids sharing a null with one already placed, the one
   with the fewest nulls not yet bound (the lowest id on a tie). Each
   pattern after the first then meets some of its nulls bound, so a wrong
   choice fails at once instead of being multiplied by the choices of
   patterns placed between it and its neighbours. *)
let connected_order ~nulls_of ids =
  let rec place bound acc = function
    | [] -> List.rev acc
    | first :: _ as rest ->
      let free i = Value.Set.cardinal (Value.Set.diff (nulls_of i) bound) in
      let next =
        match List.filter (fun i -> not (Value.Set.disjoint bound (nulls_of i))) rest with
        | [] -> first
        | linked :: others ->
          List.fold_left (fun b i -> if free i < free b then i else b) linked others
      in
      place
        (Value.Set.union bound (nulls_of next))
        (next :: acc)
        (List.filter (fun i -> i <> next) rest)
  in
  place Value.Set.empty [] ids

let hom_exists ~from ~into =
  let targets (pattern : Tuple.t) =
    Tuple.Set.elements (Instance.tuples_of into pattern.Tuple.rel)
  in
  let ground, nonground = List.partition is_ground (Instance.tuples from) in
  (* constants are fixed, so a ground tuple can only map to itself *)
  List.for_all (fun t -> Instance.mem t into) ground
  &&
  (* nulls never cross components, so the search factorizes per component *)
  let indexed = List.mapi (fun i t -> (i, t)) nonground in
  let with_nulls = List.map (fun (i, t) -> (i, tuple_nulls t)) indexed in
  let rec check remaining =
    match remaining with
    | [] -> true
    | (i, _) :: _ ->
      let comp = component ~tuples:with_nulls i in
      let patterns =
        List.map
          (fun k -> List.assoc k indexed)
          (connected_order ~nulls_of:(fun k -> List.assoc k with_nulls) comp)
      in
      Option.is_some (search_hom ~targets ~asg:Value.Map.empty patterns)
      && check (List.filter (fun (k, _) -> not (List.mem k comp)) remaining)
  in
  check with_nulls

let core inst =
  let tuples = Array.of_list (Instance.tuples inst) in
  let n = Array.length tuples in
  let alive = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.set alive i
  done;
  let id_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i t -> Hashtbl.replace id_of t i) tuples;
  let by_rel = Hashtbl.create 16 in
  Array.iteri
    (fun i (t : Tuple.t) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_rel t.rel) in
      Hashtbl.replace by_rel t.rel (i :: prev))
    tuples;
  Hashtbl.iter (fun rel ids -> Hashtbl.replace by_rel rel (List.rev ids)) by_rel;
  let alive_of_rel rel =
    List.filter (Bitset.get alive)
      (Option.value ~default:[] (Hashtbl.find_opt by_rel rel))
  in
  (* try to eliminate [avoid]: map its component into alive \ {avoid} *)
  let try_avoid nonground avoid =
    let comp = component ~tuples:nonground avoid in
    let targets (pattern : Tuple.t) =
      List.filter_map
        (fun i -> if i = avoid then None else Some tuples.(i))
        (alive_of_rel pattern.Tuple.rel)
    in
    let patterns =
      List.map
        (fun i -> tuples.(i))
        (connected_order ~nulls_of:(fun i -> tuple_nulls tuples.(i)) comp)
    in
    match search_hom ~targets ~asg:Value.Map.empty patterns with
    | None -> None
    | Some asg -> Some (comp, asg)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let nonground =
      List.filter_map
        (fun i ->
          if Bitset.get alive i && not (is_ground tuples.(i)) then
            Some (i, tuple_nulls tuples.(i))
          else None)
        (List.init n Fun.id)
    in
    let eliminated =
      List.fold_left
        (fun done_ (i, _) ->
          if done_ || not (Bitset.get alive i) then done_
          else
            match try_avoid nonground i with
            | None -> false
            | Some (comp, asg) ->
              (* replace the component by its image; everything else is
                 untouched (the endomorphism is the identity there) *)
              let image =
                List.map (fun k -> Hashtbl.find id_of (apply_asg asg tuples.(k))) comp
              in
              List.iter (Bitset.clear alive) comp;
              List.iter (Bitset.set alive) image;
              true)
        false nonground
    in
    if eliminated then progress := true
  done;
  let out = ref Instance.empty in
  Bitset.iter_set (fun i -> out := Instance.add tuples.(i) !out) alive;
  !out

let is_core inst = Instance.equal (core inst) inst
