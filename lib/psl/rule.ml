type term =
  | V of string
  | C of string

type literal = {
  positive : bool;
  pred : string;
  args : term list;
}

let pos pred args = { positive = true; pred; args }

let neg pred args = { positive = false; pred; args }

type t = {
  label : string;
  weight : float option;
  squared : bool;
  body : literal list;
  head : literal list;
}

let make ?(label = "rule") ?(squared = false) ~weight ~body ~head () =
  if body = [] && head = [] then invalid_arg "Rule.make: empty rule";
  (match weight with
  | Some w when not (Float.is_finite w) -> invalid_arg "Rule.make: non-finite weight"
  | Some w when w < 0. -> invalid_arg "Rule.make: negative weight"
  | Some _ | None -> ());
  { label; weight; squared; body; head }

let vars t =
  let seen = Hashtbl.create 8 in
  let collect acc lit =
    List.fold_left
      (fun acc term ->
        match term with
        | V v when not (Hashtbl.mem seen v) ->
          Hashtbl.add seen v ();
          v :: acc
        | V _ | C _ -> acc)
      acc lit.args
  in
  List.rev (List.fold_left collect [] (t.body @ t.head))

let pp_term ppf = function
  | V v -> Format.pp_print_string ppf v
  | C c -> Format.fprintf ppf "\"%s\"" c

let pp_literal ppf l =
  Format.fprintf ppf "%s%s(%a)"
    (if l.positive then "" else "!")
    l.pred
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_term)
    l.args

let pp ppf t =
  let pp_lits sep =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf sep)
      pp_literal
  in
  let pp_weight ppf = function
    | None -> Format.pp_print_string ppf "hard"
    | Some w -> Format.fprintf ppf "%g" w
  in
  Format.fprintf ppf "%s [%a]: %a -> %a%s" t.label pp_weight t.weight
    (pp_lits " & ") t.body (pp_lits " | ") t.head
    (if t.squared then " ^2" else "")
