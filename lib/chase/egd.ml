open Relational
open Logic

type t = {
  label : string;
  body : Atom.t list;
  left : string;
  right : string;
}

let make ?(label = "egd") ~body left right =
  if body = [] then invalid_arg "Egd.make: empty body";
  let vars = Atom.vars_of_list body in
  if not (String_set.mem left vars && String_set.mem right vars) then
    invalid_arg "Egd.make: equated variables must occur in the body";
  { label; body; left; right }

let key ~rel ~key schema =
  let r = Schema.find schema rel in
  List.iter
    (fun attr ->
      if not (Relation.has_attr r attr) then
        invalid_arg (Printf.sprintf "Egd.key: unknown key attribute %s.%s" rel attr))
    key;
  let attrs = Array.to_list r.Relation.attrs in
  let var prefix attr = Term.Var (prefix ^ "_" ^ attr) in
  let args prefix =
    List.map
      (fun attr -> if List.mem attr key then var "k" attr else var prefix attr)
      attrs
  in
  let body = [ Atom.make rel (args "a"); Atom.make rel (args "b") ] in
  attrs
  |> List.filter (fun attr -> not (List.mem attr key))
  |> List.map (fun attr ->
         make
           ~label:(Printf.sprintf "key_%s_%s" rel attr)
           ~body
           ("a_" ^ attr)
           ("b_" ^ attr))

type conflict = {
  egd : t;
  values : Value.t * Value.t;
}

let pp ppf t =
  Format.fprintf ppf "%s: %a -> %s = %s" t.label
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Atom.pp)
    t.body t.left t.right

let pp_conflict ppf c =
  Format.fprintf ppf "egd %s equates distinct constants %a and %a" c.egd.label
    Value.pp (fst c.values) Value.pp (snd c.values)

(* Find one violated egd instance: a body match where left <> right. *)
let find_violation inst egds =
  List.find_map
    (fun egd ->
      List.find_map
        (fun subst ->
          match Subst.find_opt egd.left subst, Subst.find_opt egd.right subst with
          | Some a, Some b when not (Value.equal a b) -> Some (egd, a, b)
          | Some _, Some _ | None, _ | _, None -> None)
        (Cq.answers inst egd.body))
    egds

let chase inst egds =
  let rec fixpoint inst =
    match find_violation inst egds with
    | None -> Ok inst
    | Some (egd, a, b) -> (
      (* Merge: prefer keeping a constant; between nulls keep the smaller
         label. Replacement applies to the whole instance. *)
      match a, b with
      | Value.Const _, Value.Const _ ->
        Error { egd; values = (a, b) }
      | _ ->
        let keep, gone = if Value.compare a b <= 0 then (a, b) else (b, a) in
        let replaced =
          Instance.map_values (fun v -> if Value.equal v gone then keep else v) inst
        in
        fixpoint replaced)
  in
  fixpoint inst

let satisfied inst egds = find_violation inst egds = None
