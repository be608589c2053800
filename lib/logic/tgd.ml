type t = {
  label : string;
  body : Atom.t list;
  head : Atom.t list;
}

let make ?(label = "tgd") ~body ~head () =
  if body = [] then invalid_arg "Tgd.make: empty body";
  if head = [] then invalid_arg "Tgd.make: empty head";
  { label; body; head }

let relabel label t = { t with label }

let body_vars t = Atom.vars_of_list t.body

let head_vars t = Atom.vars_of_list t.head

let frontier_vars t = String_set.inter (body_vars t) (head_vars t)

let existential_vars t = String_set.diff (head_vars t) (body_vars t)

let is_full t = String_set.is_empty (existential_vars t)

let size t =
  List.length t.body + List.length t.head
  + String_set.cardinal (existential_vars t)

let well_formed ~source ~target t =
  let check schema kind atoms =
    List.fold_left
      (fun acc a ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if Atom.conforms_to schema a then Ok ()
          else
            Error
              (Format.asprintf "%s atom %a does not conform to the %s schema"
                 kind Atom.pp a kind))
      (Ok ()) atoms
  in
  match check source "source" t.body with
  | Error _ as e -> e
  | Ok () -> check target "target" t.head

let map_vars f t =
  let map_atom (a : Atom.t) =
    { a with
      Atom.args =
        Array.map
          (function Term.Var v -> Term.Var (f v) | Term.Cst _ as c -> c)
          a.Atom.args
    }
  in
  { t with body = List.map map_atom t.body; head = List.map map_atom t.head }

let canonicalize t =
  let mapping = Hashtbl.create 8 in
  let next = ref 0 in
  let visit_atom (a : Atom.t) =
    Array.iter
      (function
        | Term.Var v ->
          if not (Hashtbl.mem mapping v) then begin
            Hashtbl.add mapping v (Printf.sprintf "V%d" !next);
            incr next
          end
        | Term.Cst _ -> ())
      a.Atom.args
  in
  List.iter visit_atom t.body;
  List.iter visit_atom t.head;
  map_vars (Hashtbl.find mapping) t

let structural_compare a b =
  let cmp_atoms xs ys =
    let rec loop xs ys =
      match xs, ys with
      | [], [] -> 0
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Atom.compare x y in
        if c <> 0 then c else loop xs ys
    in
    loop xs ys
  in
  let c = cmp_atoms a.body b.body in
  if c <> 0 then c else cmp_atoms a.head b.head

let compare a b = structural_compare a b

let equal a b = compare a b = 0

(* For renaming-insensitive equality we canonicalise after sorting the atoms
   of each side by shape (relation, constant pattern), which is a sound and —
   for the candidate tgds arising in schema mapping, where atoms within a side
   rarely share a shape — complete normal form. When it fails we fall back to
   trying every reordering of [a]'s atoms within each group of equal shape
   (an atom can only be renamed onto one of its own shape), permuting
   positions rather than atoms, so that a physically shared duplicate atom
   still counts twice. Sides of more than six atoms are not searched. *)
let equal_up_to_renaming a b =
  let shape (x : Atom.t) =
    ( x.Atom.rel,
      Array.to_list x.Atom.args
      |> List.map (function Term.Cst c -> Some c | Term.Var _ -> None) )
  in
  let by_shape atoms =
    List.stable_sort (fun x y -> Stdlib.compare (shape x) (shape y)) atoms
  in
  let normalise t =
    canonicalize { t with body = by_shape t.body; head = by_shape t.head }
  in
  let target = normalise b in
  equal (normalise a) target
  ||
  let shapes atoms = List.map shape (by_shape atoms) in
  let bounded l = List.length l <= 6 in
  shapes a.body = shapes b.body
  && shapes a.head = shapes b.head
  && bounded a.body && bounded a.head
  &&
  (* every ordering of [l] by position *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat
        (List.mapi
           (fun i x ->
             List.map (fun p -> x :: p)
               (permutations (List.filteri (fun j _ -> j <> i) l)))
           l)
  in
  (* [by_shape atoms] with each run of equal shape reordered every way *)
  let arrangements atoms =
    let groups =
      List.fold_right
        (fun x acc ->
          match acc with
          | (y :: _ as g) :: rest when shape x = shape y -> (x :: g) :: rest
          | _ -> [ x ] :: acc)
        (by_shape atoms) []
    in
    List.fold_right
      (fun g acc ->
        List.concat_map
          (fun p -> List.map (fun rest -> p @ rest) acc)
          (permutations g))
      groups [ [] ]
  in
  let heads = arrangements a.head in
  List.exists
    (fun body ->
      List.exists
        (fun head -> equal (canonicalize { a with body; head }) target)
        heads)
    (arrangements a.body)

let rename_apart ~suffix t = map_vars (fun v -> v ^ suffix) t

let pp ppf t =
  let pp_atoms =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      Atom.pp
  in
  Format.fprintf ppf "%s: %a -> %a" t.label pp_atoms t.body pp_atoms t.head

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
