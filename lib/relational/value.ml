type t =
  | Const of string
  | Null of int

let compare a b =
  match a, b with
  | Const x, Const y -> String.compare x y
  | Null x, Null y -> Int.compare x y
  | Const _, Null _ -> -1
  | Null _, Const _ -> 1

let equal a b =
  match a, b with
  | Const x, Const y -> String.equal x y
  | Null x, Null y -> Int.equal x y
  | Const _, Null _ | Null _, Const _ -> false

let is_null = function Null _ -> true | Const _ -> false

let is_const = function Const _ -> true | Null _ -> false

let pp ppf = function
  | Const s -> Format.pp_print_string ppf s
  | Null n -> Format.fprintf ppf "_N%d" n

let to_string = function
  | Const s -> s
  | Null n -> Printf.sprintf "_N%d" n

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = function
    | Const s -> Hashtbl.hash s
    | Null n -> Hashtbl.hash (-1 - n)
end)
