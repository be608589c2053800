type t = {
  coeffs : (int * float) list;
  constant : float;
}

let make coeffs constant =
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (i, c) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl i) in
      Hashtbl.replace tbl i (prev +. c))
    coeffs;
  let coeffs =
    Hashtbl.fold (fun i c acc -> if c = 0. then acc else (i, c) :: acc) tbl []
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  in
  { coeffs; constant }

let constant c = { coeffs = []; constant = c }

let eval t x =
  List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) t.constant t.coeffs

let vars t = List.map fst t.coeffs

let norm2 t = List.fold_left (fun acc (_, c) -> acc +. (c *. c)) 0. t.coeffs
