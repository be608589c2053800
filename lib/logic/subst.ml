open Relational
module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty

let singleton v x = Smap.singleton v x

let bind v x s =
  match Smap.find_opt v s with
  | None -> Some (Smap.add v x s)
  | Some x' -> if Value.equal x x' then Some s else None

let bind_exn v x s =
  match bind v x s with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Subst.bind_exn: conflicting binding for %s" v)

let find_opt v s = Smap.find_opt v s

let mem v s = Smap.mem v s

let apply_term s = function
  | Term.Cst c -> Some (Value.Const c)
  | Term.Var v -> Smap.find_opt v s

let apply_atom s (a : Atom.t) =
  let n = Array.length a.args in
  let values = Array.make n (Value.Const "") in
  let rec loop i =
    if i >= n then Some { Tuple.rel = a.rel; values }
    else
      match apply_term s a.args.(i) with
      | None -> None
      | Some x ->
        values.(i) <- x;
        loop (i + 1)
  in
  loop 0

let apply_atom_exn s a =
  match apply_atom s a with
  | Some t -> t
  | None -> invalid_arg "Subst.apply_atom_exn: unbound variable"

let bindings s = Smap.bindings s

let cardinal s = Smap.cardinal s

let compare a b = Smap.compare Value.compare a b

let equal a b = compare a b = 0

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v, x) -> Format.fprintf ppf "%s↦%a" v Value.pp x))
    (bindings s)
