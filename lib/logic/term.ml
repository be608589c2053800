type t =
  | Var of string
  | Cst of string

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Cst x, Cst y -> String.compare x y
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1

let equal a b = compare a b = 0

let var_name = function Var v -> Some v | Cst _ -> None

(* The textual grammar (Serialize.Parser) reads a bare identifier with a
   leading lowercase letter, digit or '-' as a constant and anything else
   as a variable, so a constant spelled otherwise must be quoted to survive
   a print/parse round trip. *)
let ident_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-'

let constant_needs_quoting c =
  match c with
  | "" -> true
  | _ -> (
    match c.[0] with
    | 'a' .. 'z' | '0' .. '9' | '-' -> not (String.for_all ident_char c)
    | _ -> true)

let pp ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Cst c ->
    if constant_needs_quoting c then Format.fprintf ppf "%S" c
    else Format.pp_print_string ppf c

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
