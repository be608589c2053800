(* One relation: its tuples in ascending order, and per position a table
   from value to the tuples carrying it there, each list descending. A
   position's table is built on its first probe. *)
type rel = {
  ascending : Tuple.t list;
  by_pos : Tuple.t list Value.Tbl.t option array;
}

module Rels = Hashtbl.Make (String)

(* A relation is listed on its first probe, so relations no query reaches
   cost nothing. *)
type t = {
  inst : Instance.t;
  rels : rel Rels.t;
}

let build inst = { inst; rels = Rels.create 8 }

let instance t = t.inst

let rel t name =
  match Rels.find t.rels name with
  | r -> r
  | exception Not_found ->
    let ascending = Tuple.Set.elements (Instance.tuples_of t.inst name) in
    let width = List.fold_left (fun w tu -> max w (Tuple.arity tu)) 0 ascending in
    let r = { ascending; by_pos = Array.make width None } in
    Rels.replace t.rels name r;
    r

let position r pos =
  match r.by_pos.(pos) with
  | Some tbl -> tbl
  | None ->
    let tbl = Value.Tbl.create (List.length r.ascending) in
    (* visiting the tuples in ascending order and consing leaves every list
       descending *)
    List.iter
      (fun (tu : Tuple.t) ->
        if pos < Array.length tu.values then begin
          let v = tu.values.(pos) in
          let prev = Option.value ~default:[] (Value.Tbl.find_opt tbl v) in
          Value.Tbl.replace tbl v (tu :: prev)
        end)
      r.ascending;
    r.by_pos.(pos) <- Some tbl;
    tbl

let find t name pos v =
  let r = rel t name in
  if pos >= Array.length r.by_pos then []
  else
    match Value.Tbl.find (position r pos) v with
    | tuples -> tuples
    | exception Not_found -> []

let tuples_of t name = (rel t name).ascending
