open Relational

(* Greedy join ordering: repeatedly pick the atom sharing the most variables
   with those already placed; break ties towards atoms with fewer distinct
   variables (more selective). *)
let order_atoms atoms =
  let rec pick placed_vars remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ :: _ ->
      let score a =
        let vs = Atom.vars a in
        let bound = String_set.cardinal (String_set.inter vs placed_vars) in
        let free = String_set.cardinal vs - bound in
        (bound, -free)
      in
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some a
            | Some b -> if score a > score b then Some a else best)
          None remaining
      in
      (match best with
      | None -> List.rev acc
      | Some a ->
        let remaining = List.filter (fun x -> x != a) remaining in
        pick (String_set.union placed_vars (Atom.vars a)) remaining (a :: acc))
  in
  pick String_set.empty atoms []

module Index = Relational.Index

(* A compiled conjunctive query: the atoms in [order_atoms] order, each
   position resolved at compile time against the variables bound before
   it. [Bind] writes a variable's first occurrence into its slot, [Check]
   compares a later occurrence (in the same atom or a later one) with its
   slot. An atom's probe is its first position holding a constant or a
   variable bound by an earlier atom (or before the query). *)
module Plan = struct
  type position =
    | Const of Value.t
    | Bind of int
    | Check of int

  type probe =
    | Scan
    | Fixed of int * Value.t
    | Slot of int * int

  type step = {
    rel : string;
    positions : position array;
    probe : probe;
  }

  type t = {
    steps : step array;
    vars : string array;
  }

  let compile ?(bound = []) atoms =
    let slots = Hashtbl.create 8 and names = ref (List.rev bound) in
    List.iteri (fun i x -> Hashtbl.replace slots x i) bound;
    let next = ref (List.length bound) in
    let step (a : Atom.t) =
      (* the slots below [start] were bound before this atom *)
      let start = !next in
      let positions =
        Array.map
          (function
            | Term.Cst c -> Const (Value.Const c)
            | Term.Var x -> (
              match Hashtbl.find_opt slots x with
              | Some s -> Check s
              | None ->
                let s = !next in
                Hashtbl.replace slots x s;
                names := x :: !names;
                incr next;
                Bind s))
          a.Atom.args
      in
      let rec probe pos =
        if pos >= Array.length positions then Scan
        else
          match positions.(pos) with
          | Const v -> Fixed (pos, v)
          | Check s when s < start -> Slot (pos, s)
          | Check _ | Bind _ -> probe (pos + 1)
      in
      { rel = a.Atom.rel; positions; probe = probe 0 }
    in
    let steps = Array.of_list (List.map step (order_atoms atoms)) in
    { steps; vars = Array.of_list (List.rev !names) }

  let vars t = t.vars

  (* Binds the positions of one atom against one tuple. A failed match may
     leave slots of this atom's own variables written; nothing reads them
     before a later match overwrites them. *)
  let matches positions env (tu : Tuple.t) =
    let values = tu.Tuple.values in
    let n = Array.length positions in
    Array.length values = n
    &&
    let rec loop i =
      i >= n
      ||
      match positions.(i) with
      | Const c -> Value.equal c values.(i) && loop (i + 1)
      | Check s -> Value.equal env.(s) values.(i) && loop (i + 1)
      | Bind s ->
        env.(s) <- values.(i);
        loop (i + 1)
    in
    loop 0

  let iter t index env f =
    let n = Array.length t.steps in
    let rec go d =
      if d >= n then f env
      else
        let st = t.steps.(d) in
        let candidates =
          match st.probe with
          | Scan -> Index.tuples_of index st.rel
          | Fixed (pos, v) -> Index.find index st.rel pos v
          | Slot (pos, s) -> Index.find index st.rel pos env.(s)
        in
        List.iter (fun tu -> if matches st.positions env tu then go (d + 1)) candidates
    in
    go 0
end

(* The variables of [atoms] that [s] binds are the plan's pre-bound slots;
   an answer is [s] extended with the slots the plan binds. The index lists
   a relation only when the plan first probes it. *)
let extensions inst s atoms =
  let bound =
    List.filter (fun x -> Subst.mem x s) (String_set.elements (Atom.vars_of_list atoms))
  in
  let plan = Plan.compile ~bound atoms in
  let vars = Plan.vars plan in
  let env =
    Array.map
      (fun x -> Option.value ~default:(Value.Const "") (Subst.find_opt x s))
      vars
  in
  let first = List.length bound and answers = ref [] in
  Plan.iter plan (Index.build inst) env (fun env ->
      let answer = ref s in
      for k = first to Array.length vars - 1 do
        answer := Subst.bind_exn vars.(k) env.(k) !answer
      done;
      answers := !answer :: !answers);
  List.rev !answers

let answers inst atoms = extensions inst Subst.empty atoms

let holds inst atoms =
  let plan = Plan.compile atoms in
  let exception Found in
  match
    Plan.iter plan (Index.build inst)
      (Array.make (Array.length (Plan.vars plan)) (Value.Const ""))
      (fun _ -> raise_notrace Found)
  with
  | () -> false
  | exception Found -> true
