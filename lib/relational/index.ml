(* One relation: its tuples in ascending order, and per position a table
   from value to the tuples carrying it there, each list descending. *)
type rel = {
  ascending : Tuple.t list;
  by_pos : Tuple.t list Value.Tbl.t array;
}

module Rels = Hashtbl.Make (String)

type t = {
  inst : Instance.t;
  rels : rel Rels.t;
}

let index_relation set =
  let size = Tuple.Set.cardinal set in
  let width = Tuple.Set.fold (fun t w -> max w (Tuple.arity t)) set 0 in
  let by_pos = Array.init width (fun _ -> Value.Tbl.create size) in
  (* visiting the tuples in ascending order and consing leaves every list
     descending *)
  Tuple.Set.iter
    (fun tu ->
      Array.iteri
        (fun pos v ->
          let tbl = by_pos.(pos) in
          let prev = Option.value ~default:[] (Value.Tbl.find_opt tbl v) in
          Value.Tbl.replace tbl v (tu :: prev))
        tu.Tuple.values)
    set;
  { ascending = Tuple.Set.elements set; by_pos }

let build inst =
  let relations = Instance.relations inst in
  let rels = Rels.create (List.length relations) in
  List.iter
    (fun rel ->
      Rels.replace rels rel (index_relation (Instance.tuples_of inst rel)))
    relations;
  { inst; rels }

let instance t = t.inst

let find t rel pos v =
  match Rels.find t.rels rel with
  | r when pos < Array.length r.by_pos -> (
    match Value.Tbl.find r.by_pos.(pos) v with
    | tuples -> tuples
    | exception Not_found -> [])
  | _ | (exception Not_found) -> []

let tuples_of t rel =
  match Rels.find t.rels rel with r -> r.ascending | exception Not_found -> []
