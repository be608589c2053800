open Relational

type t = {
  rel : string;
  args : Term.t array;
}

let make rel args = { rel; args = Array.of_list args }

let arity a = Array.length a.args

let vars a =
  Array.fold_left
    (fun acc t ->
      match t with Term.Var v -> String_set.add v acc | Term.Cst _ -> acc)
    String_set.empty a.args

let vars_of_list atoms =
  List.fold_left (fun acc a -> String_set.union acc (vars a)) String_set.empty atoms

let vars_in_order a =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc t ->
      match t with
      | Term.Var v when not (Hashtbl.mem seen v) ->
        Hashtbl.add seen v ();
        v :: acc
      | Term.Var _ | Term.Cst _ -> acc)
    [] a.args
  |> List.rev

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Stdlib.compare a.args b.args

let equal a b = compare a b = 0

let conforms_to schema a =
  match Schema.find_opt schema a.rel with
  | None -> false
  | Some r -> Relation.arity r = arity a

let pp ppf a =
  Format.fprintf ppf "%s(%a)" a.rel
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Term.pp)
    (Array.to_list a.args)
